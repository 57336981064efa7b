package sweep

import (
	"math"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// TestSweepScenariosValidatesUpfront: a bad cell fails the whole call
// before any replica runs.
func TestSweepScenariosValidatesUpfront(t *testing.T) {
	cfg := Config{Replicas: 2, BaseSeed: 1}
	cases := []struct {
		name    string
		cells   []ScenarioPoint
		wantErr string
	}{
		{"unknown scenario", []ScenarioPoint{{Scenario: "bogus"}}, "unknown scenario"},
		{"unknown option", []ScenarioPoint{{Scenario: "fig2", Options: []scenario.Option{scenario.WithOption("jobz", "1")}}}, "no option"},
		{"bad value", []ScenarioPoint{{Scenario: "fig2", Options: []scenario.Option{scenario.WithOption("jobs", "many")}}}, "does not parse"},
		{"out-of-range axis", []ScenarioPoint{{Scenario: "fib-day", Options: []scenario.Option{scenario.WithHorizon(0)}}}, "horizon"},
	}
	for _, tc := range cases {
		if res, err := SweepScenarios(cfg, tc.cells); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		} else if res != nil {
			t.Errorf("%s: validation failure still returned results", tc.name)
		}
	}
	for _, n := range []int{0, -2} {
		res, err := SweepScenarios(Config{Replicas: n, BaseSeed: 1}, []ScenarioPoint{{Scenario: "fig2"}})
		if err == nil || !strings.Contains(err.Error(), "replica count") {
			t.Errorf("%d replicas: err = %v, want a replica-count error", n, err)
		} else if res != nil {
			t.Errorf("%d replicas: validation failure still returned results", n)
		}
	}
}

// TestSweepScenariosSurfacesRuntimeErrors: a cell that passes upfront
// validation but fails in every replica (federated-day's "routing"
// option parses as a plain string; the names are only resolved against
// the router registry inside Run) must come back as a joined error
// naming the cell and seeds — not as a silently empty result.
func TestSweepScenariosSurfacesRuntimeErrors(t *testing.T) {
	cfg := Config{Replicas: 2, BaseSeed: 1}
	res, err := SweepScenarios(cfg, []ScenarioPoint{
		{Scenario: "federated-day", Options: []scenario.Option{
			scenario.WithOption("routing", "no-such-routing"),
		}},
	})
	if err == nil {
		t.Fatal("all replicas failed yet SweepScenarios returned no error")
	}
	if !strings.Contains(err.Error(), "federated-day") || !strings.Contains(err.Error(), "unknown routing policy") {
		t.Errorf("error %q does not name the cell and cause", err)
	}
	if len(res) != 1 {
		t.Fatalf("partial results missing: %+v", res)
	}
	if len(res[0].Metrics) != 0 {
		t.Errorf("failed cell reports metrics: %v", res[0].Metrics)
	}
}

// TestSweepSurvivesNilFirstReplica: a cell whose *first* replica
// failed (nil metrics) must still aggregate the successful replicas —
// metric names may not hinge on replica 0.
func TestSweepSurvivesNilFirstReplica(t *testing.T) {
	calls := 0
	res := Sweep(Config{Replicas: 3, Workers: 1, BaseSeed: 1}, []Point{{
		Name: "flaky-first",
		Run: func(seed int64) (Metrics, map[string]*stats.TDigest) {
			calls++
			if calls == 1 {
				return nil, nil // replica 0 fails
			}
			return Metrics{"x": float64(calls)}, nil
		},
	}})
	s := res[0].Metrics["x"]
	if s.N != 2 {
		t.Fatalf("metric x aggregated over %d replicas, want the 2 successes (values %v)",
			s.N, res[0].Values["x"])
	}
}

// TestSweepMergesSketches: a point whose replicas return t-digests
// gets them merged in replica order into Result.Digests — identically
// across worker counts — while a point returning nil digests stays
// digest-free.
func TestSweepMergesSketches(t *testing.T) {
	run := func(workers int) []Result {
		return Sweep(Config{Replicas: 4, Workers: workers, BaseSeed: 3}, []Point{
			{
				Name: "sketched",
				Run: func(seed int64) (Metrics, map[string]*stats.TDigest) {
					d := stats.NewTDigest(0)
					// A deterministic per-seed stream: 1000 observations
					// spread by the seed so replicas differ.
					for i := 0; i < 1000; i++ {
						d.Add(float64(i%97) + float64(seed%13))
					}
					return Metrics{"n": float64(d.Len())}, map[string]*stats.TDigest{"v": d}
				},
			},
			{Name: "plain", Run: func(seed int64) (Metrics, map[string]*stats.TDigest) { return Metrics{"n": 1}, nil }},
		})
	}
	res := run(1)
	merged := res[0].Digests["v"]
	if merged == nil {
		t.Fatal("sketched point has no merged digest")
	}
	if merged.Len() != 4000 {
		t.Errorf("merged digest holds %d observations, want 4×1000", merged.Len())
	}
	if res[1].Digests != nil {
		t.Errorf("plain point grew digests: %v", res[1].Digests)
	}
	res4 := run(4)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		a, b := merged.Quantile(p), res4[0].Digests["v"].Quantile(p)
		if a != b {
			t.Errorf("q(%.1f): 1-worker %v vs 4-worker %v — merge order not deterministic", p, a, b)
		}
	}
}

// TestSweepScenariosMergesStreamingDigests: a streaming-mode catalog
// scenario exposes its latency digest through the DigestProvider
// contract, so the sweep returns one cross-replica merged sketch whose
// count is the sum of the replicas' successful requests.
func TestSweepScenariosMergesStreamingDigests(t *testing.T) {
	cfg := Config{Replicas: 2, BaseSeed: 7}
	opts := []scenario.Option{
		scenario.WithNodes(64), scenario.WithHorizon(30 * 60 * 1e9),
		scenario.WithQPS(2), scenario.WithOption("actions", "10"),
	}
	res, err := SweepScenarios(cfg, []ScenarioPoint{
		{Name: "buffered", Scenario: "fib-day", Options: opts},
		{Name: "streaming", Scenario: "fib-day",
			Options: append(append([]scenario.Option(nil), opts...), scenario.WithOption("streaming", "true"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Digests != nil {
		t.Errorf("buffered cell grew digests: %v", res[0].Digests)
	}
	d := res[1].Digests["latency-s"]
	if d == nil {
		t.Fatal("streaming cell has no merged latency digest")
	}
	if d.Len() == 0 || math.IsNaN(d.Quantile(0.5)) {
		t.Errorf("merged digest unusable: n=%d", d.Len())
	}
	// Identical scalar metrics either way: streaming only changes what
	// the collectors retain, never the simulation.
	for _, name := range []string{"pilots-started", "invoked-share", "success-share"} {
		if a, b := res[0].Metrics[name].Mean, res[1].Metrics[name].Mean; a != b {
			t.Errorf("%s: buffered %v vs streaming %v", name, a, b)
		}
	}
}

// TestSweepScenariosAggregates runs a real (fast) catalog scenario
// across replicas and checks naming, per-replica seeding and the
// worker-count invariance the engine guarantees.
func TestSweepScenariosAggregates(t *testing.T) {
	run := func(workers int) []Result {
		cfg := Config{Replicas: 3, Workers: workers, BaseSeed: 9}
		res, err := SweepScenarios(cfg, []ScenarioPoint{
			{Scenario: "fig2", Options: []scenario.Option{scenario.WithOption("jobs", "2000")}},
			{Name: "tiny", Scenario: "fig2", Options: []scenario.Option{scenario.WithOption("jobs", "500")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(1)
	if len(res) != 2 || res[0].Name != "fig2" || res[1].Name != "tiny" {
		t.Fatalf("cells misnamed: %+v", res)
	}
	for _, r := range res {
		if r.Replicas != 3 {
			t.Errorf("%s: %d replicas, want 3", r.Name, r.Replicas)
		}
		if s := r.Metrics["median-limit-min"]; s.N != 3 {
			t.Errorf("%s: metric aggregated over %d replicas, want 3", r.Name, s.N)
		}
	}
	// The jobs option reached the runs: the jobs metric echoes it.
	if got := res[0].Metrics["jobs"].Mean; got != 2000 {
		t.Errorf("first cell ran %v jobs, want 2000", got)
	}
	if got := res[1].Metrics["jobs"].Mean; got != 500 {
		t.Errorf("second cell ran %v jobs, want 500", got)
	}
	// Replicas actually decorrelate: three seeds, three runs (medians
	// of 2000-job samples differ across seeds with probability ~1).
	if vals := res[0].Values["median-runtime-min"]; len(vals) == 3 &&
		vals[0] == vals[1] && vals[1] == vals[2] {
		t.Errorf("replica values identical — per-replica seeds not applied: %v", vals)
	}

	// Worker count never changes the numbers.
	res4 := run(4)
	for i := range res {
		for name, vals := range res[i].Values {
			got := res4[i].Values[name]
			for j := range vals {
				if vals[j] != got[j] {
					t.Fatalf("%s/%s replica %d: 1-worker %v vs 4-worker %v",
						res[i].Name, name, j, vals[j], got[j])
				}
			}
		}
	}
}

// TestCapWorkers pins the workers × shards budget arithmetic: the
// effective worker count is lowered until it fits MaxParallelism, but
// never below one, and unsharded sweeps are untouched.
func TestCapWorkers(t *testing.T) {
	cases := []struct{ workers, budget, shards, want int }{
		{8, 8, 4, 2}, // 8×4 over an 8-budget → 2 workers
		{8, 8, 1, 8}, // unsharded: budget not consulted
		{1, 8, 4, 1}, // already within budget
		{2, 8, 4, 2}, // exactly at budget
		{3, 4, 8, 1}, // shards alone exceed the budget → one-worker floor
	}
	for _, c := range cases {
		cfg := Config{Workers: c.workers, MaxParallelism: c.budget}
		if got := cfg.capWorkers(c.shards).workers(); got != c.want {
			t.Errorf("capWorkers(workers=%d budget=%d shards=%d) = %d, want %d",
				c.workers, c.budget, c.shards, got, c.want)
		}
	}
}

// TestSweepScenariosShardedWorkerInvariance: a sharded federated cell
// is still bit-identical across worker counts — the sweep's
// determinism guarantee composes with the pdes runtime's — and the
// engine resolves the cell's shards option through
// scenario.Parallelism to cap combined concurrency.
func TestSweepScenariosShardedWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full federated replicas (skipped under -short for the CI race gate)")
	}
	cells := []ScenarioPoint{{
		Name:     "sharded",
		Scenario: "federated-day",
		Options: []scenario.Option{
			scenario.WithNodes(24), scenario.WithHorizon(20 * 60 * 1e9),
			scenario.WithOption("sites", "2"), scenario.WithOption("actions", "12"),
			scenario.WithOption("routing", "capacity-weighted"),
			scenario.WithOption("shards", "2"),
		},
	}}
	run := func(workers int) []Result {
		res, err := SweepScenarios(Config{Replicas: 2, Workers: workers, BaseSeed: 11}, cells)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1)[0], run(8)[0]
	if len(a.Values) == 0 {
		t.Fatal("sharded cell produced no metrics")
	}
	for name, vals := range a.Values {
		got, ok := b.Values[name]
		if !ok || len(got) != len(vals) {
			t.Fatalf("%s: metric shape differs across worker counts", name)
		}
		for j := range vals {
			if vals[j] != got[j] {
				t.Fatalf("%s replica %d: 1-worker %v vs 8-worker %v", name, j, vals[j], got[j])
			}
		}
	}
}
