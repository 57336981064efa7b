package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// catalogNames is the full paper catalog this package must register.
var catalogNames = []string{
	"ablation", "endogenous", "federated-day", "fib-day", "fig1", "fig2",
	"fig3", "fig7", "policy-comparison", "scientific", "table1",
	"var-day", "week-day",
}

func TestCatalogComplete(t *testing.T) {
	have := map[string]bool{}
	for _, name := range Names() {
		have[name] = true
	}
	for _, want := range catalogNames {
		if !have[want] {
			t.Errorf("catalog lacks scenario %q", want)
		}
	}
	// All() mirrors Names() in name order with populated specs.
	all := All()
	if len(all) != len(Names()) {
		t.Fatalf("All() has %d specs, Names() %d", len(all), len(Names()))
	}
	for i, sp := range all {
		if sp.Name != Names()[i] {
			t.Errorf("All()[%d] = %q, want %q", i, sp.Name, Names()[i])
		}
		if sp.Description == "" || sp.Artifact == "" || sp.Run == nil {
			t.Errorf("spec %q is incomplete: %+v", sp.Name, sp)
		}
	}
}

func TestRegisterRejectsBadSpecs(t *testing.T) {
	mustPanic := func(name string, sp Spec) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(sp)
	}
	run := func(context.Context, Config) (Result, error) { return nil, nil }
	mustPanic("empty name", Spec{Run: run})
	mustPanic("nil run", Spec{Name: "incomplete"})
	mustPanic("duplicate", Spec{Name: "fib-day", Run: run})
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("bogus"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("Lookup(bogus) = %v, want unknown-scenario error", err)
	}
	if _, err := Run(context.Background(), "bogus"); err == nil {
		t.Error("Run(bogus) succeeded")
	}
}

func TestValidateCatchesBadOptions(t *testing.T) {
	cases := []struct {
		name    string
		scen    string
		opts    []Option
		wantErr string
	}{
		{"unknown option", "fig2", []Option{WithOption("jobz", "10")}, `no option "jobz"`},
		{"option on optionless scenario", "fig3", []Option{WithOption("jobs", "10")}, `no option`},
		{"bad int", "fig2", []Option{WithOption("jobs", "many")}, "does not parse as int"},
		{"bad bool", "scientific", []Option{WithOption("use-wrapper", "maybe")}, "does not parse as bool"},
		{"bad duration", "endogenous", []Option{WithOption("max-walltime", "4 hours")}, "does not parse as duration"},
		{"bad float", "endogenous", []Option{WithOption("utilization", "high")}, "does not parse as float"},
		{"unknown policy", "fib-day", []Option{WithPolicy("bogus")}, "unknown policy"},
		{"unused qps axis", "fig2", []Option{WithQPS(5)}, "does not use the qps axis"},
		{"unused nodes axis", "fig3", []Option{WithNodes(512)}, "does not use the nodes axis"},
		{"unused policy axis", "table1", []Option{WithPolicy("fib")}, "does not use the policy axis"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.scen, tc.opts...)
			if err == nil {
				t.Fatalf("Validate(%s) succeeded, want error containing %q", tc.scen, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q lacks %q", err, tc.wantErr)
			}
		})
	}
	if err := Validate("fig2", WithOption("jobs", "100"), WithSeed(3)); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// TestUniformAxesRangeChecked: for every registered scenario and each
// range-checked axis it honors, an out-of-range value fails Run (and
// Validate) before anything simulates, with an error naming the axis —
// never a panic inside the trace generator or a silently unloaded run.
// qps 0 disables load, except in the scenarios that always drive load,
// which reject it the same way.
func TestUniformAxesRangeChecked(t *testing.T) {
	bad := map[string][]Option{
		"nodes":   {WithNodes(0), WithNodes(-3), WithNodes(workload.MaxNodes + 1)},
		"horizon": {WithHorizon(0), WithHorizon(-time.Hour), WithHorizon(maxDuration + 1)},
		"qps":     {WithQPS(-1), WithQPS(math.NaN()), WithQPS(math.Inf(1)), WithQPS(2e9), WithQPS(1e-12)},
	}
	checked := 0
	for _, sp := range All() {
		axes := sp.Axes
		if axes == nil { // permissive custom scenario: every axis honored
			axes = []string{"nodes", "horizon", "qps"}
		}
		for _, axis := range axes {
			for i, opt := range bad[axis] {
				checked++
				res, err := func() (res Result, err error) {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%s: bad %s value #%d panicked: %v", sp.Name, axis, i, p)
						}
					}()
					return Run(context.Background(), sp.Name, opt)
				}()
				if err == nil || res != nil {
					t.Errorf("%s: bad %s value #%d ran (err %v)", sp.Name, axis, i, err)
					continue
				}
				if !strings.Contains(err.Error(), axis) {
					t.Errorf("%s: error %q does not name the %s axis", sp.Name, err, axis)
				}
				if Validate(sp.Name, opt) == nil {
					t.Errorf("%s: Validate accepted bad %s value #%d", sp.Name, axis, i)
				}
			}
		}
		for _, axis := range axes {
			if axis != "qps" {
				continue
			}
			err := Validate(sp.Name, WithQPS(0))
			switch {
			case !sp.loaded && err != nil:
				t.Errorf("%s: qps 0 (load disabled) rejected: %v", sp.Name, err)
			case sp.loaded && (err == nil || !strings.Contains(err.Error(), "qps")):
				t.Errorf("%s: qps 0 = %v, want an error naming qps (the scenario always drives load)", sp.Name, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no scenario honors a range-checked axis — the check is vacuous")
	}
}

// TestOutOfRangeOptionsRejected: every scenario input that used to
// panic mid-run or run silently wrong is refused where options are
// parsed — before a sweep fans out a single replica — with an error
// naming the option or axis.
func TestOutOfRangeOptionsRejected(t *testing.T) {
	type rangeCase struct {
		scen, name string // name: the option or axis the error must name
		opt        Option
	}
	cases := []rangeCase{
		{"federated-day", "qps", WithQPS(0)},
		{"scientific", "qps", WithQPS(0)},
		{"scientific", "functions", WithOption("functions", "0")},
		{"scientific", "checkpoint-interval", WithOption("checkpoint-interval", "-1s")},
		{"endogenous", "utilization", WithOption("utilization", "0")},
		{"endogenous", "utilization", WithOption("utilization", "NaN")},
		{"endogenous", "max-walltime", WithOption("max-walltime", "0s")},
		{"endogenous", "max-job-nodes", WithOption("max-job-nodes", "0")},
		{"fig7", "vertices", WithOption("vertices", "0")},
		{"fig7", "degree", WithOption("degree", "0")},
		{"fig7", "invocations", WithOption("invocations", "0")},
		{"ablation", "checkpoint-interval", WithOption("checkpoint-interval", "-1s")},
		{"checkpoint-frontier", "checkpoint-interval", WithOption("checkpoint-interval", "-1s")},
		{"checkpoint-frontier", "checkpoint-interval", WithOption("checkpoint-interval", "0s")},
		{"checkpoint-frontier", "gap", WithOption("gap", "-1m")},
		{"policy-comparison", "mean-idle-nodes", WithOption("mean-idle-nodes", "-1")},
		{"policy-comparison", "mean-idle-nodes", WithOption("mean-idle-nodes", "NaN")},
		{"fig2", "jobs", WithOption("jobs", "0")},
		{"federated-day", "sites", WithOption("sites", "0")},
		// Values the per-option schema accepts but the scenario's own
		// check refuses.
		{"week-day", "day", WithOption("day", "foo")},
		{"federated-day", "routing", WithOption("routing", "nope")},
		{"federated-day", "routing", WithOption("routing", "spill-over,nope")},
		{"federated-day", "sites × nodes", WithNodes(600000)}, // × the default 4 sites
		{"policy-comparison", "policies", WithOption("policies", "fib,nope")},
		{"fib-day", "nodes", WithNodes(99999999999)},
		// Durations whose sum with an instant of the run would wrap a
		// time.Duration.
		{"checkpoint-frontier", "windows", WithOption("windows", "4m,2562047h")},
		{"checkpoint-frontier", "windows", WithOption("windows", "0s")},
		{"checkpoint-frontier", "durations", WithOption("durations", "2562047h")},
		{"checkpoint-frontier", "gap", WithOption("gap", "2562047h")},
		{"checkpoint-frontier", "checkpoint-interval", WithOption("checkpoint-interval", "2562047h")},
		{"scientific", "checkpoint-interval", WithOption("checkpoint-interval", "2562047h")},
		{"ablation", "checkpoint-interval", WithOption("checkpoint-interval", "2562047h")},
		{"endogenous", "max-walltime", WithOption("max-walltime", "2562047h")},
	}
	for _, scen := range []string{"fib-day", "var-day", "week-day", "federated-day"} {
		cases = append(cases,
			rangeCase{scen, "actions", WithOption("actions", "0")},
			rangeCase{scen, "actions", WithOption("actions", "-1")},
			rangeCase{scen, "sleep-exec", WithOption("sleep-exec", "-1s")},
			rangeCase{scen, "sleep-exec", WithOption("sleep-exec", "2562047h")})
	}
	for _, scen := range []string{"fib-day", "var-day"} {
		cases = append(cases,
			rangeCase{scen, "checkpoint-interval", WithOption("checkpoint-interval", "-1s")},
			rangeCase{scen, "action-timeout", WithOption("action-timeout", "-1s")},
			rangeCase{scen, "action-timeout", WithOption("action-timeout", "2562047h")},
			rangeCase{scen, "checkpoint-interval", WithOption("checkpoint-interval", "2562047h")})
	}
	for _, scen := range Names() {
		cases = append(cases, rangeCase{scen, "has no option", WithOption("shards", "2")})
	}
	for _, tc := range cases {
		err := Validate(tc.scen, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: Validate = %v, want an error naming %s", tc.scen, err, tc.name)
			continue
		}
		res, err := func() (res Result, err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			return Run(context.Background(), tc.scen, tc.opt)
		}()
		if err == nil || res != nil || !strings.Contains(err.Error(), tc.name) || strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: Run = %v, want the validation error naming %s", tc.scen, err, tc.name)
		}
	}
	// The boundary values that mean something stay accepted: 0 disables
	// checkpointing and keeps the default action timeout, a 0 gap puts
	// the idle windows back to back, qps 0 unloads a plain day, and
	// durations and horizons reach up to maxDuration.
	for _, ok := range []struct {
		scen string
		opt  Option
	}{
		{"fib-day", WithOption("checkpoint-interval", "0")},
		{"fib-day", WithOption("action-timeout", "0s")},
		{"fib-day", WithOption("sleep-exec", "0s")},
		{"fib-day", WithQPS(0)},
		{"scientific", WithOption("checkpoint-interval", "0s")},
		{"checkpoint-frontier", WithOption("gap", "0s")},
		{"checkpoint-frontier", WithOption("windows", "4m,500000h")},
		{"fib-day", WithOption("action-timeout", "500000h")},
		{"fib-day", WithHorizon(maxDuration)},
		{"policy-comparison", WithOption("mean-idle-nodes", "0")},
		{"week-day", WithOption("day", "var")},
		{"federated-day", WithOption("routing", "spill-over, capacity-weighted")},
		{"federated-day", WithNodes(1 << 18)}, // × the default 4 sites: exactly the bound
		{"policy-comparison", WithOption("policies", "fib,var")},
	} {
		if err := Validate(ok.scen, ok.opt); err != nil {
			t.Errorf("%s: in-range value rejected: %v", ok.scen, err)
		}
	}
}

// TestCatalogResultsRender: every catalog scenario's typed result
// renders itself, so Fprint prints the paper's shape for all of them
// and falls back to MetricsTable only for custom scenarios. Each runs
// at a toy size.
func TestCatalogResultsRender(t *testing.T) {
	tiny := []Option{WithNodes(16), WithHorizon(20 * time.Minute)}
	sized := map[string][]Option{
		"ablation":            tiny,
		"checkpoint-frontier": {WithNodes(8), WithHorizon(20 * time.Minute), WithOption("durations", "1m"), WithOption("windows", "4m")},
		"endogenous":          tiny,
		"federated-day":       append([]Option{WithQPS(1), WithOption("sites", "2")}, tiny...),
		"fib-day":             append([]Option{WithQPS(1)}, tiny...),
		"fig1":                tiny,
		"fig2":                {WithOption("jobs", "100")},
		"fig3":                nil,
		"fig7":                {WithOption("vertices", "200"), WithOption("invocations", "2")},
		"policy-comparison":   append([]Option{WithQPS(1), WithOption("policies", "fib")}, tiny...),
		"scientific":          append([]Option{WithQPS(1), WithOption("functions", "10")}, tiny...),
		"table1":              tiny,
		"var-day":             append([]Option{WithQPS(1)}, tiny...),
		"week-day":            append([]Option{WithQPS(1)}, tiny...),
	}
	for _, sp := range All() {
		opts, ok := sized[sp.Name]
		if !ok {
			if !strings.HasPrefix(sp.Name, "test-") {
				t.Errorf("catalog scenario %q has no toy size here", sp.Name)
			}
			continue
		}
		res, err := Run(context.Background(), sp.Name, opts...)
		if err != nil {
			t.Errorf("%s: %v", sp.Name, err)
			continue
		}
		if _, ok := res.Unwrap().(Renderer); !ok {
			t.Errorf("%s: typed result %T has no Render", sp.Name, res.Unwrap())
		}
	}
}

// TestWeekDayScenario: the week-scale scenario defaults to streaming
// collectors (reported via the metrics-bytes metric), rejects an
// unknown base day, and runs a scaled-down horizon end to end.
func TestWeekDayScenario(t *testing.T) {
	if _, err := Run(context.Background(), "week-day", WithOption("day", "mon")); err == nil ||
		!strings.Contains(err.Error(), "day=fib or day=var") {
		t.Errorf("err = %v, want bad-day error", err)
	}
	res, err := Run(context.Background(), "week-day",
		WithSeed(4), WithNodes(64), WithHorizon(time.Hour), WithQPS(2))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	if m["metrics-bytes"] <= 0 {
		t.Errorf("streaming run reports metrics-bytes = %v, want > 0", m["metrics-bytes"])
	}
	if m["success-share"] <= 0 {
		t.Errorf("no successful requests: %v", m)
	}
}

// TestPolicyComparisonRejectsUnknownPolicyList: the "policies" raw
// option is a string, so its kind check passes any name; the
// scenario's own check, which newConfig runs, must turn an unknown
// name into an error, not a MustNew panic mid-sweep.
func TestPolicyComparisonRejectsUnknownPolicyList(t *testing.T) {
	_, err := Run(context.Background(), "policy-comparison",
		WithOption("policies", "fib,bogus"))
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("err = %v, want unknown-policy error", err)
	}
}

// TestScenariosRejectUnknownPolicies: every scenario with a policy
// axis resolves the name through the registry, so an unknown policy
// must error cleanly before the run starts — never a MustNew panic
// mid-sweep.
func TestScenariosRejectUnknownPolicies(t *testing.T) {
	for _, name := range []string{"scientific", "endogenous", "fib-day", "federated-day"} {
		_, err := Run(context.Background(), name, WithPolicy("bogus"))
		if err == nil || !strings.Contains(err.Error(), "unknown policy") {
			t.Errorf("%s: err = %v, want unknown-policy error", name, err)
		}
	}
}

// TestConfigPlumbing registers a capture scenario and checks the
// accessor-with-default contract: unset axes report the defaults the
// scenario passes in, set axes report the caller's values, and raw
// options parse per kind.
func TestConfigPlumbing(t *testing.T) {
	var got Config
	Register(Spec{
		Name: "test-capture", Artifact: "test", Description: "captures its config",
		Options: []OptionDoc{
			{Name: "depth", Kind: KindInt, Default: "7", Help: "test"},
			{Name: "share", Kind: KindFloat, Default: "0.5", Help: "test"},
			{Name: "fast", Kind: KindBool, Default: "false", Help: "test"},
			{Name: "grace", Kind: KindDuration, Default: "3m", Help: "test"},
			{Name: "tag", Kind: KindString, Default: "", Help: "test"},
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			got = cfg
			return NewResult(nil, map[string]float64{"ok": 1}), nil
		},
	})

	// Defaults only.
	if _, err := Run(context.Background(), "test-capture"); err != nil {
		t.Fatal(err)
	}
	if got.Seed() != 1 {
		t.Errorf("default seed %d, want 1", got.Seed())
	}
	if got.Nodes(256) != 256 || got.Horizon(time.Hour) != time.Hour ||
		got.Policy("fib") != "fib" || got.QPS(10) != 10 {
		t.Error("unset axes do not report the scenario defaults")
	}
	if got.Int("depth", 7) != 7 || got.Float("share", 0.5) != 0.5 ||
		got.Bool("fast", false) || got.Duration("grace", 3*time.Minute) != 3*time.Minute ||
		got.String("tag", "") != "" {
		t.Error("unset raw options do not report the defaults")
	}

	// Everything set.
	_, err := Run(context.Background(), "test-capture",
		WithSeed(42), WithNodes(64), WithHorizon(2*time.Hour),
		WithPolicy("adaptive"), WithQPS(0),
		WithOption("depth", "12"), WithOption("share", "0.25"),
		WithOption("fast", "true"), WithOption("grace", "90s"),
		WithOption("tag", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed() != 42 || got.Nodes(256) != 64 || got.Horizon(time.Hour) != 2*time.Hour ||
		got.Policy("fib") != "adaptive" || got.QPS(10) != 0 {
		t.Error("set axes do not report the caller's values")
	}
	if got.Int("depth", 7) != 12 || got.Float("share", 0.5) != 0.25 ||
		!got.Bool("fast", false) || got.Duration("grace", 3*time.Minute) != 90*time.Second ||
		got.String("tag", "") != "x" {
		t.Error("set raw options do not report the caller's values")
	}

	// WithQPS(0) must count as set: 0 disables load, it is not "unset".
	if got.QPS(10) != 0 {
		t.Error("QPS(0) was treated as unset")
	}

	// A nil-Axes (custom) scenario accepts every uniform axis.
	if err := Validate("test-capture", WithNodes(64), WithQPS(5)); err != nil {
		t.Errorf("nil-Axes scenario rejected axes: %v", err)
	}

	// A Spec whose accessor kind disagrees with its OptionDoc is a
	// programming error and must fail loudly, not silently discard
	// the user's validated value.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind-mismatched accessor did not panic")
			}
		}()
		got.Int("tag", 1) // "tag" is documented KindString and holds "x"
	}()
}

// TestFig2RejectsNonPositiveJobs: an explicit jobs=0 must error, not
// silently run the full 74k-job default.
func TestFig2RejectsNonPositiveJobs(t *testing.T) {
	_, err := Run(context.Background(), "fig2", WithOption("jobs", "0"))
	if err == nil || !strings.Contains(err.Error(), "positive jobs") {
		t.Errorf("err = %v, want positive-jobs error", err)
	}
}

func TestMetricsTable(t *testing.T) {
	rows := MetricsTable(map[string]float64{"b": 2, "a": 1.5, "c": 3})
	if len(rows) != 4 {
		t.Fatalf("%d rows, want header+3", len(rows))
	}
	if rows[0][0] != "metric" || rows[1][0] != "a" || rows[2][0] != "b" || rows[3][0] != "c" {
		t.Errorf("rows not in sorted metric order: %v", rows)
	}
}

// TestResultContract checks NewResult's two views.
func TestResultContract(t *testing.T) {
	typed := struct{ X int }{7}
	res := NewResult(typed, map[string]float64{"x": 7})
	if res.Unwrap().(struct{ X int }).X != 7 {
		t.Error("Unwrap lost the typed value")
	}
	if res.Metrics()["x"] != 7 {
		t.Error("Metrics lost the value")
	}
}

// TestPreCanceledContext: every catalog scenario must notice an
// already-canceled context and return its error without doing the
// work — the uniform-cancellation half of the Result contract.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range catalogNames {
		name := name
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			res, err := Run(ctx, name)
			if err == nil {
				t.Fatal("run succeeded under a canceled context")
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v does not unwrap to context.Canceled", err)
			}
			var cut *CancelError
			if !errors.As(err, &cut) {
				t.Errorf("error %T is not a *CancelError", err)
			}
			if res != nil {
				t.Errorf("canceled run still returned a result: %v", res)
			}
			if e := time.Since(start); e > 5*time.Second {
				t.Errorf("cancellation took %v, want prompt return", e)
			}
		})
	}
}
