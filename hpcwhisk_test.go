package hpcwhisk

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/experiments"
)

// These tests exercise the public facade end to end, the way a
// downstream user would.

func TestFacadeDeployAndInvoke(t *testing.T) {
	sys := New(DefaultConfig(32, "fib"))
	cfg := DefaultTraceConfig(32, time.Hour, 5)
	cfg.MeanIdleNodes = 4
	sys.LoadTrace(cfg.Generate())
	sys.Ctrl.RegisterAction(&Action{
		Name: "f", MemoryMB: 128, Exec: FixedExec(5 * time.Millisecond), Interruptible: true,
	})
	ok := 0
	tick := sys.Sim.Every(5*time.Second, func() {
		sys.Ctrl.Invoke("f", func(inv *Invocation) {
			if inv.Status == StatusSuccess {
				ok++
			}
		})
	})
	sys.Start()
	sys.Run(time.Hour)
	tick.Stop()
	sys.Run(time.Minute)
	if ok == 0 {
		t.Fatal("no successful invocation through the facade")
	}
	if sys.Manager.Registered == 0 {
		t.Fatal("no invoker ever registered")
	}
}

func TestFacadeSweep(t *testing.T) {
	cells := []ScenarioPoint{{
		Name:     "fib-slice",
		Scenario: "fib-day",
		Options:  []ScenarioOption{WithNodes(128), WithHorizon(time.Hour), WithQPS(0)},
	}}
	sweepWith := func(workers int) []SweepResult {
		res, err := SweepScenarios(SweepConfig{Replicas: 3, Workers: workers, BaseSeed: 9}, cells)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	results := sweepWith(2)
	if len(results) != 1 || results[0].Name != "fib-slice" {
		t.Fatalf("unexpected results: %+v", results)
	}
	cov, ok := results[0].Metrics["live-coverage"]
	if !ok || cov.N != 3 {
		t.Fatalf("live-coverage summary = %+v (present=%v)", cov, ok)
	}
	if cov.Mean <= 0 || cov.Mean > 1 {
		t.Errorf("implausible mean coverage %v", cov.Mean)
	}
	if again := sweepWith(1)[0].Metrics["live-coverage"]; again != cov {
		t.Error("1-worker and 2-worker sweeps disagree on the same cell")
	}
}

func TestFacadeTraceGeneration(t *testing.T) {
	tr := GenerateTrace(100, 2*time.Hour, 7)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Periods) == 0 {
		t.Fatal("empty trace")
	}
}

// TestFacadeJobs generates the Fig. 2 HPC job stream through the
// facade's scenario path (the per-job runtime ≤ declared-limit
// property is pinned in internal/workload).
func TestFacadeJobs(t *testing.T) {
	res, err := RunScenario(context.Background(), "fig2", WithSeed(3), WithOption("jobs", "500"))
	if err != nil {
		t.Fatal(err)
	}
	r := res.Unwrap().(experiments.Fig2Result)
	if r.Jobs != 500 {
		t.Fatalf("jobs = %d", r.Jobs)
	}
	if r.MedianRuntime > r.MedianLimit || r.MedianSlack < 0 {
		t.Fatalf("median runtime %v above median limit %v (slack %v)",
			r.MedianRuntime, r.MedianLimit, r.MedianSlack)
	}
}

func TestFacadeWrapperWithLambdaFallback(t *testing.T) {
	sys := New(DefaultConfig(8, "fib"))
	sys.LoadTrace(&Trace{Nodes: 8, Horizon: time.Hour}) // starved cluster
	sys.Ctrl.RegisterAction(&Action{Name: "g", Exec: FixedExec(time.Millisecond)})
	fb := NewLambdaClient(sys, 9)
	w := NewWrapper(sys, fb)
	served := 0
	sys.Sim.Every(10*time.Second, func() {
		w.Invoke("g", func(inv *Invocation) {
			if inv.Status == StatusSuccess {
				served++
			}
		})
	})
	sys.Start()
	sys.Run(10 * time.Minute)
	if served == 0 {
		t.Fatal("wrapper served nothing despite fallback")
	}
	if fb.Calls == 0 {
		t.Fatal("fallback never used on a starved cluster")
	}
}

// TestFacadeCoverageSimulation runs the §IV-B clairvoyant packing
// through the facade's table1 scenario and checks the A1 row.
func TestFacadeCoverageSimulation(t *testing.T) {
	res, err := RunScenario(context.Background(), "table1",
		WithSeed(11), WithNodes(200), WithHorizon(6*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Unwrap().(experiments.TableIResult).Rows {
		if row.Set.Name != "A1" {
			continue
		}
		if row.Jobs == 0 {
			t.Fatal("no jobs packed")
		}
		total := row.ShareWarmup + row.ShareReady + row.ShareNotUsed
		if total < 0.999 || total > 1.001 {
			t.Fatalf("shares sum to %v", total)
		}
		return
	}
	t.Fatal("table1 has no A1 row")
}

// TestFacadeSeBS runs the real bfs/mst/pagerank kernels through the
// facade's fig7 scenario on a small graph.
func TestFacadeSeBS(t *testing.T) {
	res, err := RunScenario(context.Background(), "fig7", WithSeed(13),
		WithOption("vertices", "1000"), WithOption("degree", "6"), WithOption("invocations", "1"))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Unwrap().(experiments.Fig7Result).Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want bfs/mst/pagerank", len(rows))
	}
	for _, row := range rows {
		if row.PrometheusMedian <= 0 || row.LambdaMedian <= 0 {
			t.Errorf("%s: medians %v / %v, want both positive", row.Function, row.PrometheusMedian, row.LambdaMedian)
		}
	}
}

// TestFacadeLoadGenerator drives a small deployment with the
// open-loop constant-rate load generator through the facade's
// scenario QPS axis.
func TestFacadeLoadGenerator(t *testing.T) {
	res, err := RunScenario(context.Background(), "fib-day", WithSeed(17),
		WithNodes(16), WithHorizon(30*time.Minute), WithQPS(2), WithOption("actions", "2"))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Unwrap().(DayResult).Load
	if rep.Issued != 3600 {
		t.Fatalf("issued = %d", rep.Issued)
	}
	if rep.InvokedShare == 0 {
		t.Fatal("nothing invoked")
	}
}

func TestFacadeWeekTraceMatchesPaper(t *testing.T) {
	tr := GenerateTrace(experiments.PrometheusNodes, experiments.Week, 2)
	mean := tr.IdleCount().TimeMean()
	if mean < 7 || mean > 12 {
		t.Errorf("week mean idle = %.2f, want ≈9.23", mean)
	}
}

// TestFacadeScenarioCatalog pins the acceptance criterion that
// Scenarios() enumerates every paper experiment.
func TestFacadeScenarioCatalog(t *testing.T) {
	want := []string{
		"fib-day", "var-day", // Tables II/III, Figs. 5/6
		"fig1", "fig2", "fig3", "fig7", "table1", // the analysis artifacts
		"ablation", "policy-comparison", "scientific", "endogenous", // beyond-paper
		"federated-day", // the cluster-of-clusters comparison
	}
	have := map[string]bool{}
	for _, sp := range Scenarios() {
		have[sp.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("Scenarios() lacks %q", name)
		}
	}
	all := Scenarios()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("Scenarios() not in name order: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
}

// TestFacadeRunScenario runs one scenario end to end through the
// facade and checks the three views of the Result contract.
func TestFacadeRunScenario(t *testing.T) {
	res, err := RunScenario(context.Background(), "fig3", WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	if m["ready-coverage"] <= 0 || m["ready-coverage"] > 1 {
		t.Errorf("ready-coverage = %v, want in (0,1]", m["ready-coverage"])
	}
	if len(res.Table()) < 2 {
		t.Errorf("Table() has %d rows", len(res.Table()))
	}
	if _, ok := res.Unwrap().(experiments.Fig3Result); !ok {
		t.Errorf("Unwrap() = %T, want experiments.Fig3Result", res.Unwrap())
	}
}

// TestFacadeFederation drives a federation end to end through the
// facade: a uniform multi-site config, a custom registered routing
// policy, skewed traces, and the front-door counters a downstream
// user would read.
func TestFacadeFederation(t *testing.T) {
	RegisterRoutingPolicy("facade-test-home-or-any", func() RoutingPolicy {
		return homeOrAny{}
	})

	base := DefaultConfig(16, "fib")
	base.Seed = 21
	cfg := UniformFederationConfig(3, base)
	cfg.Routing = "facade-test-home-or-any"
	fed := NewFederation(cfg)

	for i := range fed.Sites {
		tr := DefaultTraceConfig(16, time.Hour, int64(30+i))
		tr.MeanIdleNodes = 4
		if i == 2 {
			fed.LoadTrace(i, &Trace{Nodes: 16, Horizon: time.Hour}) // starved site
			continue
		}
		fed.LoadTrace(i, tr.Generate())
	}
	fed.RegisterAction(&Action{
		Name: "f", MemoryMB: 128, Exec: FixedExec(5 * time.Millisecond), Interruptible: true,
	})

	ok := 0
	tick := fed.Sim.Every(5*time.Second, func() {
		fed.Invoke("f", func(inv *Invocation) {
			if inv.Status == StatusSuccess {
				ok++
			}
		})
	})
	fed.Start()
	fed.Run(time.Hour)
	tick.Stop()
	fed.Run(time.Minute)

	if ok == 0 {
		t.Fatal("no successful invocation through the federated facade")
	}
	if got := fed.Door.Issued; got != 720 {
		t.Errorf("door issued %d, want 720", got)
	}
	var perSite int
	for _, n := range fed.Door.IssuedBySite {
		perSite += n
	}
	if perSite != fed.Door.Issued {
		t.Errorf("per-site issued %d != door issued %d", perSite, fed.Door.Issued)
	}
	found := false
	for _, name := range RoutingPolicyNames() {
		if name == "facade-test-home-or-any" {
			found = true
		}
	}
	if !found {
		t.Error("custom routing policy missing from RoutingPolicyNames")
	}
	if _, err := RunScenario(context.Background(), "federated-day",
		WithOption("routing", "no-such-routing")); err == nil {
		t.Error("federated-day accepted an unknown routing policy")
	}
}

// homeOrAny is the test's custom routing policy: home if healthy, else
// the first healthy site, else NoSite.
type homeOrAny struct{}

func (homeOrAny) Name() string { return "facade-test-home-or-any" }
func (homeOrAny) Init(int)     {}
func (homeOrAny) Pick(v RouterView, action string, home int) int {
	if v.Healthy(home) {
		return home
	}
	for i := 0; i < v.NumSites(); i++ {
		if v.Healthy(i) {
			return i
		}
	}
	return NoSite
}

// TestFacadeScenarioCancellation cancels a day mid-run through the
// facade and checks the typed error surfaces.
func TestFacadeScenarioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunScenario(ctx, "fib-day",
		WithSeed(1), WithNodes(48), WithHorizon(2*time.Hour), WithQPS(0),
		WithProgress(func(done, total time.Duration) {
			if done >= 30*time.Minute {
				cancel()
			}
		}))
	var cut *ScenarioCancelError
	if !errors.As(err, &cut) {
		t.Fatalf("err = %v (%T), want *ScenarioCancelError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err does not unwrap to context.Canceled")
	}
}
