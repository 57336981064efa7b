package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// must unwraps an experiment entry's (result, error) pair. The tests
// run every entry under context.Background(), so an error means a
// broken harness, not a cancellation.
func must[T any](res T, err error) T {
	if err != nil {
		panic(err)
	}
	return res
}

// checkGolden compares got against testdata/name, rewriting the file
// first when the test runs with -update. Regenerate every golden after
// an intentional behavior change with
//
//	go test ./internal/experiments -run Golden -update
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("render diverged from golden %s (%d vs %d bytes); run with -update if intentional",
			name, len(got), len(want))
	}
}

// memo shares one run of a deterministic experiment per distinct
// configuration: every entry is a pure function of its (comparable)
// config — which is exactly what the goldens pin — so the tests that
// check the same full-scale run read one result instead of repeating
// a 24-hour day.
type memo[C comparable, R any] struct {
	mu   sync.Mutex
	run  func(C) R
	runs map[C]R
}

func (m *memo[C, R]) get(cfg C) R {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[cfg]
	if !ok {
		r = m.run(cfg)
		if m.runs == nil {
			m.runs = map[C]R{}
		}
		m.runs[cfg] = r
	}
	return r
}

// dayRender is what the golden tests read of a day: its Render plus
// RenderSeries bytes and its work ledger.
type dayRender struct {
	out  []byte
	work stats.WorkCounters
}

// renderDay runs cfg afresh.
func renderDay(cfg DayConfig) dayRender {
	r := must(RunDayCtx(context.Background(), cfg, nil))
	var buf bytes.Buffer
	r.Render(&buf)
	r.RenderSeries(&buf)
	return dayRender{buf.Bytes(), r.Work}
}

var sharedDays = &memo[DayConfig, dayRender]{run: renderDay}

// TestRunDayMatchesPreRefactorGolden pins the day engine to the
// committed renders: the goldens were rendered by the original
// core.Mode-enum manager (before the supply-policy interface existed,
// since removed), and the fib/var runs — default-config and with the
// registry policy named explicitly — must still reproduce them byte
// for byte. FibDay/VarDay already name their policy, so the -policy
// cases are the default configuration and share its run: two distinct
// 24-hour days back the four cases.
func TestRunDayMatchesPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	cases := []struct {
		name   string
		golden string
		cfg    DayConfig
	}{
		{"fib-default", "fibday_seed2.golden", FibDay(2)},
		{"var-default", "varday_seed2.golden", VarDay(2)},
		{"fib-policy", "fibday_seed2.golden", withPolicy(FibDay(2), "fib")},
		{"var-policy", "varday_seed2.golden", withPolicy(VarDay(2), "var")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.golden, sharedDays.get(tc.cfg).out)
		})
	}
}

// TestEmptyPolicyDefaultsToFib covers the empty-Policy default without
// another full day: the golden days name their policy, so a short
// slice with Policy "" must render byte-identically to the same slice
// with "fib" named.
func TestEmptyPolicyDefaultsToFib(t *testing.T) {
	render := func(name string) []byte {
		cfg := withPolicy(FibDay(2), name)
		cfg.Nodes = 64
		cfg.Horizon = time.Hour
		cfg.MeanIdleNodes = 4
		cfg.QPS = 2
		r := must(RunDayCtx(context.Background(), cfg, nil))
		var buf bytes.Buffer
		r.Render(&buf)
		r.RenderSeries(&buf)
		return buf.Bytes()
	}
	if FibDay(2).Policy != "fib" || VarDay(2).Policy != "var" {
		t.Fatal("the golden days must name their registry policy")
	}
	if withPolicy(FibDay(2), "").PolicyName() != "fib" {
		t.Fatal("empty Policy does not resolve to fib")
	}
	if !bytes.Equal(render(""), render("fib")) {
		t.Error("empty-Policy day rendered differently from the named fib day")
	}
}

func withPolicy(cfg DayConfig, name string) DayConfig {
	cfg.Policy = name
	return cfg
}

// goldenAblationConfig is the golden-pinned three-arm ablation: 256
// nodes, 4 h, seed 5, checkpoint arm off.
var goldenAblationConfig = AblationConfig{Nodes: 256, Horizon: 4 * time.Hour, Seed: 5}

var sharedAblations = &memo[AblationConfig, AblationResult]{
	run: func(cfg AblationConfig) AblationResult {
		return must(RunAblationCtx(context.Background(), cfg, nil))
	},
}

// goldenAblation is the golden-pinned ablation, run once and shared by
// the tests that read it.
func goldenAblation() AblationResult { return sharedAblations.get(goldenAblationConfig) }

// TestRunAblationMatchesPreRefactorGolden pins the allocation-free
// request path to the closure-based pre-refactor behavior: the golden
// was rendered before invocations, bus messages, and DES callbacks
// were pooled, and the ablation (which exercises every hand-off code
// path: drains, interrupts, and hard kills under load) must still
// reproduce it byte for byte.
func TestRunAblationMatchesPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	var buf bytes.Buffer
	goldenAblation().Render(&buf)
	checkGolden(t, "ablation_n256_h4_seed5.golden", buf.Bytes())
}
