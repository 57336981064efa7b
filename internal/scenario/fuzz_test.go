package scenario

import (
	"strings"
	"testing"
	"time"
)

// FuzzValidate drives Validate with arbitrary axis values and raw
// key=value options on every registered scenario (the checked-in
// corpus under testdata/fuzz replays in every test run). Validate must
// return nil or an error without panicking; once it accepts, each set
// raw option must read through the accessor of its documented kind
// without panicking.
func FuzzValidate(f *testing.F) {
	f.Add(uint8(0), uint8(0xff), int64(1), 64, int64(time.Hour), "fib", 10.0, uint8(0), "2", "streaming=true")
	f.Fuzz(func(t *testing.T, scen, axes uint8, seed int64, nodes int, horizon int64, pol string, qps float64, opt uint8, value, sets string) {
		names := Names()
		sp, err := Lookup(names[int(scen)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithSeed(seed)}
		if axes&1 != 0 {
			opts = append(opts, WithNodes(nodes))
		}
		if axes&2 != 0 {
			opts = append(opts, WithHorizon(time.Duration(horizon)))
		}
		if axes&4 != 0 {
			opts = append(opts, WithPolicy(pol))
		}
		if axes&8 != 0 {
			opts = append(opts, WithQPS(qps))
		}
		// opt picks a documented option, so every kind's check is in
		// reach; past the docs, value doubles as an undocumented key.
		key := value
		if int(opt) < len(sp.Options) {
			key = sp.Options[opt].Name
		}
		opts = append(opts, WithOption(key, value))
		var set SetFlag
		for _, kv := range strings.Split(sets, ";") {
			_ = set.Set(kv) // refuses a pair without "=", as the CLIs do
		}
		opts = append(opts, set.Options()...)

		if err := Validate(sp.Name, opts...); err != nil {
			return
		}
		cfg, err := newConfig(sp, opts)
		if err != nil {
			t.Fatalf("Validate accepted what newConfig refuses: %v", err)
		}
		for _, d := range sp.Options {
			if _, ok := cfg.raw[d.Name]; !ok {
				continue
			}
			switch d.Kind {
			case KindInt:
				cfg.Int(d.Name, 0)
			case KindFloat:
				cfg.Float(d.Name, 0)
			case KindBool:
				cfg.Bool(d.Name, false)
			case KindDuration:
				cfg.Duration(d.Name, 0)
			case KindString:
				if v := cfg.String(d.Name, ""); d.durations {
					if _, err := durationList(v, nil); err != nil {
						t.Fatalf("accepted %s=%q, which does not read as a duration list: %v", d.Name, v, err)
					}
				}
			}
		}
	})
}
