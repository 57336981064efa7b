package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
)

// Config is the uniform scenario configuration, built from functional
// options. The five shared axes (seed, nodes, horizon, supply policy,
// QPS) cover what every paper experiment varies; anything
// scenario-specific travels through the raw key=value escape hatch
// (WithOption) and is documented per scenario in Spec.Options.
//
// A scenario reads the config through the accessor-with-default
// methods: an axis the caller never set reports the scenario's own
// default, so every scenario keeps its paper calibration unless
// explicitly overridden.
type Config struct {
	seed     int64
	nodes    int
	horizon  time.Duration
	policy   string
	qps      float64
	set      map[string]bool
	raw      map[string]string
	progress ProgressFunc
}

// Option mutates a Config under construction.
type Option func(*Config)

func (c *Config) mark(axis string) {
	if c.set == nil {
		c.set = map[string]bool{}
	}
	c.set[axis] = true
}

// WithSeed sets the experiment seed (default 1). Runs are
// deterministic per seed; sweeps override the seed per replica.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.seed = seed; c.mark("seed") }
}

// WithNodes sets the cluster size.
func WithNodes(n int) Option {
	return func(c *Config) { c.nodes = n; c.mark("nodes") }
}

// WithHorizon sets the experiment length in virtual time.
func WithHorizon(d time.Duration) Option {
	return func(c *Config) { c.horizon = d; c.mark("horizon") }
}

// WithPolicy sets the pilot-supply policy by registry name.
func WithPolicy(name string) Option {
	return func(c *Config) { c.policy = name; c.mark("policy") }
}

// WithQPS sets the responsiveness-load request rate (0 disables load).
func WithQPS(qps float64) Option {
	return func(c *Config) { c.qps = qps; c.mark("qps") }
}

// WithOption sets one scenario-specific raw option; the scenario's
// Spec.Options documents the accepted names, kinds and defaults.
// Unknown names and unparsable values are rejected before the
// scenario runs.
func WithOption(name, value string) Option {
	return func(c *Config) {
		if c.raw == nil {
			c.raw = map[string]string{}
		}
		c.raw[name] = value
	}
}

// WithProgress installs a virtual-time progress callback, invoked at
// every DES epoch the scenario simulates.
func WithProgress(fn ProgressFunc) Option {
	return func(c *Config) { c.progress = fn }
}

// Seed returns the configured seed, default 1.
func (c Config) Seed() int64 {
	if c.set["seed"] {
		return c.seed
	}
	return 1
}

// Nodes returns the configured cluster size, or def when unset.
func (c Config) Nodes(def int) int {
	if c.set["nodes"] {
		return c.nodes
	}
	return def
}

// Horizon returns the configured horizon, or def when unset.
func (c Config) Horizon(def time.Duration) time.Duration {
	if c.set["horizon"] {
		return c.horizon
	}
	return def
}

// Policy returns the configured supply-policy name, or def when unset.
func (c Config) Policy(def string) string {
	if c.set["policy"] {
		return c.policy
	}
	return def
}

// QPS returns the configured load rate, or def when unset.
func (c Config) QPS(def float64) float64 {
	if c.set["qps"] {
		return c.qps
	}
	return def
}

// Progress returns the installed progress callback (nil when none).
func (c Config) Progress() ProgressFunc { return c.progress }

// Raw option accessors. Values were validated against the scenario's
// OptionDoc kinds before Run, so a present value that fails to parse
// here means the Spec documents one Kind but its Run reads another —
// a programming error in the scenario, reported by panic rather than
// silently discarding the user's validated value. A missing option
// reports the scenario default passed in.

// String returns a raw option, or def when unset.
func (c Config) String(name, def string) string {
	if v, ok := c.raw[name]; ok {
		return v
	}
	return def
}

// kindMismatch reports a Spec whose accessor disagrees with its
// OptionDoc kind.
func kindMismatch(name, value string, as Kind) string {
	return fmt.Sprintf("scenario: option %s=%q read as %s but documented as another kind — fix the Spec's OptionDoc", name, value, as)
}

// Int returns an integer raw option, or def when unset.
func (c Config) Int(name string, def int) int {
	v, ok := c.raw[name]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		panic(kindMismatch(name, v, KindInt))
	}
	return n
}

// Float returns a float raw option, or def when unset.
func (c Config) Float(name string, def float64) float64 {
	v, ok := c.raw[name]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		panic(kindMismatch(name, v, KindFloat))
	}
	return f
}

// Bool returns a boolean raw option, or def when unset.
func (c Config) Bool(name string, def bool) bool {
	v, ok := c.raw[name]
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		panic(kindMismatch(name, v, KindBool))
	}
	return b
}

// Duration returns a duration raw option (Go syntax, e.g. "90m"), or
// def when unset.
func (c Config) Duration(name string, def time.Duration) time.Duration {
	v, ok := c.raw[name]
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		panic(kindMismatch(name, v, KindDuration))
	}
	return d
}

// SetFlag collects repeatable "-set key=value" scenario options; both
// CLIs install a SetFlag as the flag.Value behind -set so the parsing
// and expansion live in one place.
type SetFlag []string

// String implements flag.Value.
func (f *SetFlag) String() string { return strings.Join(*f, ",") }

// Set implements flag.Value, accepting one key=value pair.
func (f *SetFlag) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want key=value, got %q", v)
	}
	*f = append(*f, v)
	return nil
}

// Options expands the collected pairs into WithOption options.
func (f SetFlag) Options() []Option {
	var out []Option
	for _, kv := range f {
		k, v, _ := strings.Cut(kv, "=")
		out = append(out, WithOption(k, v))
	}
	return out
}

// Kind is the declared type of a raw scenario option.
type Kind string

// Raw option kinds.
const (
	KindInt      Kind = "int"
	KindFloat    Kind = "float"
	KindBool     Kind = "bool"
	KindDuration Kind = "duration"
	KindString   Kind = "string"
)

// OptionDoc documents one scenario-specific raw option: its name, the
// kind its values must parse as, the default in force when unset, and
// one line of help. The docs double as the validation schema — a raw
// option not documented here is rejected, and a catalog option's
// numeric range is checked too.
type OptionDoc struct {
	Name    string
	Kind    Kind
	Default string
	Help    string

	// min is the lower bound of a numeric catalog option; the zero
	// value leaves the range unchecked. Every duration is bounded above
	// by maxDuration.
	min bound

	// durations marks a string option read as a comma-separated list of
	// positive durations (durationList), each bounded by maxDuration.
	durations bool
}

// maxDuration bounds every horizon and every duration a scenario
// accepts: 500,000 h (about 57 years), under a quarter of the clock. An
// instant of a run is at most its horizon plus a drain of minutes plus
// a few such durations (an idle window and the gap after it, a body and
// its timeout), so it stays a time.Duration instead of wrapping around.
const maxDuration = 500_000 * time.Hour

// bound is the lower bound of a numeric option; the zero value is no
// bound. A bounded option also rejects non-finite floats.
type bound uint8

const (
	nonNegative bound = iota + 1 // ≥ 0
	positive                     // > 0
)

// check reports whether value parses as the documented kind and lies
// in the documented range; scen names the scenario in a range error.
func (d OptionDoc) check(scen, value string) error {
	var x float64 // the parsed value, for the range check
	var err error
	switch d.Kind {
	case KindInt:
		var n int
		n, err = strconv.Atoi(value)
		x = float64(n)
	case KindFloat:
		x, err = strconv.ParseFloat(value, 64)
	case KindBool:
		_, err = strconv.ParseBool(value)
	case KindDuration:
		var dur time.Duration
		dur, err = time.ParseDuration(value)
		x = float64(dur)
	case KindString:
		if d.durations {
			if _, err := durationList(value, nil); err != nil {
				return fmt.Errorf("scenario: %q option %s=%q: %v", scen, d.Name, value, err)
			}
		}
	default:
		err = fmt.Errorf("unknown option kind %q", d.Kind)
	}
	if err != nil {
		return fmt.Errorf("scenario: option %s=%q does not parse as %s", d.Name, value, d.Kind)
	}
	switch {
	case d.min == positive && (!(x > 0) || math.IsInf(x, 0)):
		return fmt.Errorf("scenario: %q wants a positive %s, got %s", scen, d.Name, value)
	case d.min == nonNegative && (!(x >= 0) || math.IsInf(x, 0)):
		return fmt.Errorf("scenario: %q wants a non-negative %s, got %s", scen, d.Name, value)
	case d.Kind == KindDuration && x > float64(maxDuration):
		return fmt.Errorf("scenario: %q wants %s at most %v, got %s", scen, d.Name, maxDuration, value)
	}
	return nil
}

// paceable reports whether a load generator can pace qps requests per
// second: its arrival interval, 1s/qps truncated to whole nanoseconds,
// must be at least 1 ns and at most maxDuration.
func paceable(qps float64) bool {
	iv := float64(time.Second) / qps
	return iv >= 1 && iv <= float64(maxDuration)
}

// newConfig applies the options and validates the result against the
// scenario's schema: set axes must be ones the scenario declares it
// reads and lie in range (1 ≤ nodes ≤ workload.MaxNodes, 0 < horizon ≤
// maxDuration, finite qps ≥ 0 with an arrival interval the generator
// can pace, and qps > 0 where the scenario cannot run unloaded),
// raw keys must be documented, raw values must parse as their
// documented kind and lie in its range, and a set policy must exist in
// the policy registry.
func newConfig(sp Spec, opts []Option) (Config, error) {
	var c Config
	for _, opt := range opts {
		opt(&c)
	}
	if sp.Axes != nil {
		honored := map[string]bool{"seed": true}
		for _, a := range sp.Axes {
			honored[a] = true
		}
		for _, axis := range []string{"nodes", "horizon", "policy", "qps"} {
			if c.set[axis] && !honored[axis] {
				return Config{}, fmt.Errorf("scenario: %q does not use the %s axis (honors %v)",
					sp.Name, axis, sp.Axes)
			}
		}
	}
	switch {
	case c.set["nodes"] && (c.nodes < 1 || c.nodes > workload.MaxNodes):
		return Config{}, fmt.Errorf("scenario: %q wants nodes from 1 to %d, got %d", sp.Name, workload.MaxNodes, c.nodes)
	case c.set["horizon"] && (c.horizon <= 0 || c.horizon > maxDuration):
		return Config{}, fmt.Errorf("scenario: %q wants a positive horizon of at most %v, got %v", sp.Name, maxDuration, c.horizon)
	case c.set["qps"] && (c.qps < 0 || math.IsNaN(c.qps) || math.IsInf(c.qps, 0)):
		return Config{}, fmt.Errorf("scenario: %q wants a finite qps ≥ 0, got %v", sp.Name, c.qps)
	case c.set["qps"] && c.qps > 0 && !paceable(c.qps):
		return Config{}, fmt.Errorf("scenario: %q wants a qps whose arrival interval 1s/qps is at least 1ns and at most %v, got %v", sp.Name, maxDuration, c.qps)
	case c.set["qps"] && c.qps == 0 && sp.loaded:
		return Config{}, fmt.Errorf("scenario: %q cannot run unloaded: wants qps > 0, got 0", sp.Name)
	}
	// The run engines resolve the name with policy.MustNew, and every
	// scenario's default is registered, so an unknown policy fails
	// here, not mid-run.
	if c.set["policy"] {
		if _, err := policy.New(c.policy); err != nil {
			return Config{}, err
		}
	}
	docs := map[string]OptionDoc{}
	for _, d := range sp.Options {
		docs[d.Name] = d
	}
	names := make([]string, 0, len(c.raw))
	for name := range c.raw {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic first error
	for _, name := range names {
		d, ok := docs[name]
		if !ok {
			return Config{}, fmt.Errorf("scenario: %q has no option %q (have %v)",
				sp.Name, name, optionNames(sp.Options))
		}
		if err := d.check(sp.Name, c.raw[name]); err != nil {
			return Config{}, err
		}
	}
	return c, nil
}

func optionNames(docs []OptionDoc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}
