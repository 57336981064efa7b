package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func TestSeedsDeterministicAndDistinct(t *testing.T) {
	cfg := Config{Replicas: 64, BaseSeed: 7}
	a, b := cfg.Seeds(), cfg.Seeds()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Seeds is not a pure function of BaseSeed")
	}
	seen := map[int64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate replica seed %d", s)
		}
		seen[s] = true
	}
	c := Config{Replicas: 64, BaseSeed: 8}
	if reflect.DeepEqual(a, c.Seeds()) {
		t.Fatal("different base seeds produced identical replica seeds")
	}
}

// TestSweepWorkerCountInvariant: a sweep's output must be bit-identical
// for 1 worker and GOMAXPROCS workers, even when replicas finish out of
// order (the synthetic experiment spins longer for some seeds).
func TestSweepWorkerCountInvariant(t *testing.T) {
	points := []Point{
		{Name: "a", Run: func(seed int64) (Metrics, map[string]*stats.TDigest) {
			spin(int(seed % 5000))
			return Metrics{"x": float64(seed % 1000), "y": float64(seed % 7)}, nil
		}},
		{Name: "b", Run: func(seed int64) (Metrics, map[string]*stats.TDigest) {
			spin(int(seed % 9000))
			return Metrics{"x": float64(seed % 13)}, nil
		}},
	}
	serial := Sweep(Config{Replicas: 50, Workers: 1, BaseSeed: 3}, points)
	parallel := Sweep(Config{Replicas: 50, Workers: runtime.GOMAXPROCS(0), BaseSeed: 3}, points)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("sweep output depends on worker count")
	}
}

// spin burns a little CPU so replica completion order is scrambled.
func spin(n int) {
	x := 1.0
	for i := 0; i < n; i++ {
		x *= 1.0000001
	}
	if x < 0 {
		panic("unreachable")
	}
}

// replicate runs one experiment across cfg.Replicas decorrelated seeds
// and aggregates its metrics: Sweep for a single anonymous point.
func replicate(cfg Config, run func(seed int64) Metrics) Result {
	return Sweep(cfg, []Point{{Name: "replicate", Run: func(seed int64) (Metrics, map[string]*stats.TDigest) {
		return run(seed), nil
	}}})[0]
}

// TestConcurrentRealReplicas runs real experiment replicas in parallel
// without a -short gate, so the CI race job always exercises actual
// experiment code on concurrent workers (catching package-level shared
// state anywhere under internal/experiments). Besides the paper day,
// every replica runs a toy scientific workload with checkpointing on
// (faasload functions, lambda cold starts and the resume path) and a
// toy endogenous run (the job generator), whose distributions are
// package-level values all replicas share.
func TestConcurrentRealReplicas(t *testing.T) {
	run := func(seed int64) Metrics {
		ctx := context.Background()
		cfg := experiments.FibDay(seed)
		cfg.Nodes = 128
		cfg.Horizon = time.Hour
		cfg.QPS = 0
		day, _ := experiments.RunDayCtx(ctx, cfg, nil) // never canceled

		sci := experiments.DefaultScientificConfig(seed)
		sci.Nodes = 64
		sci.Horizon = 20 * time.Minute
		sci.Functions = 20
		sci.CheckpointInterval = 30 * time.Second
		sr, _ := experiments.RunScientificCtx(ctx, sci, nil)

		endo := experiments.DefaultEndogenousConfig(seed)
		endo.Nodes = 32
		endo.Horizon = time.Hour
		er, _ := experiments.RunEndogenousCtx(ctx, endo, nil)

		m := day.Metrics()
		for k, v := range sr.Metrics() {
			m["scientific/"+k] = v
		}
		for k, v := range er.Metrics() {
			m["endogenous/"+k] = v
		}
		return m
	}
	res := replicate(Config{Replicas: 4, Workers: 4, BaseSeed: 5}, run)
	for _, k := range []string{"live-coverage", "scientific/success-share", "endogenous/prime-utilization"} {
		if n := res.Metrics[k].N; n != 4 {
			t.Fatalf("%s aggregated %d replicas, want 4", k, n)
		}
	}
}

// TestReplicateFibDayWorkerCountInvariant is the acceptance scenario:
// 32 replicas of the FibDay experiment (scaled to a 256-node, 2-hour
// slice so the suite stays fast) must aggregate to byte-identical JSON
// for worker counts 1 and GOMAXPROCS.
func TestReplicateFibDayWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica experiment sweep")
	}
	run := func(seed int64) Metrics {
		cfg := experiments.FibDay(seed)
		cfg.Nodes = 256
		cfg.Horizon = 2 * time.Hour
		cfg.QPS = 2
		cfg.NumActions = 10
		r, _ := experiments.RunDayCtx(context.Background(), cfg, nil) // never canceled
		return r.Metrics()
	}
	serial := replicate(Config{Replicas: 32, Workers: 1, BaseSeed: 1}, run)
	parallel := replicate(Config{Replicas: 32, Workers: runtime.GOMAXPROCS(0), BaseSeed: 1}, run)

	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("FibDay aggregate differs across worker counts:\n1 worker: %s\nN workers: %s", a, b)
	}

	// The aggregate must actually carry distributional content.
	cov := serial.Metrics["live-coverage"]
	if cov.N != 32 {
		t.Fatalf("live-coverage aggregated %d replicas, want 32", cov.N)
	}
	if cov.Std == 0 {
		t.Error("32 decorrelated seeds produced zero variance — seeds are not independent")
	}
	if cov.CI95 <= 0 || cov.Min > cov.Median || cov.Median > cov.Max {
		t.Errorf("implausible summary: %+v", cov)
	}
}

func TestSweepAggregatesPerPoint(t *testing.T) {
	points := []Point{
		{Name: "p0", Run: func(seed int64) (Metrics, map[string]*stats.TDigest) { return Metrics{"m": 1}, nil }},
		{Name: "p1", Run: func(seed int64) (Metrics, map[string]*stats.TDigest) { return Metrics{"m": 2}, nil }},
	}
	res := Sweep(Config{Replicas: 5, Workers: 2, BaseSeed: 1}, points)
	if len(res) != 2 || res[0].Name != "p0" || res[1].Name != "p1" {
		t.Fatalf("results out of point order: %+v", res)
	}
	for i, want := range []float64{1, 2} {
		s := res[i].Metrics["m"]
		if s.N != 5 || s.Mean != want || s.Std != 0 || s.CI95 != 0 {
			t.Errorf("point %d summary = %+v, want mean %v over 5 replicas", i, s, want)
		}
		if len(res[i].Values["m"]) != 5 {
			t.Errorf("point %d kept %d raw values, want 5", i, len(res[i].Values["m"]))
		}
		if len(res[i].Seeds) != 5 {
			t.Errorf("point %d recorded %d seeds, want 5", i, len(res[i].Seeds))
		}
	}
}

// TestWorkersCappedByJobs: a sweep starts no more workers than it has
// runs, however many it is asked for.
func TestWorkersCappedByJobs(t *testing.T) {
	cases := []struct{ workers, jobs, want int }{
		{1_000_000_000, 6, 6},
		{2, 6, 2},
		{0, 1, 1},
		{4, 0, 0},
		{0, 1 << 20, runtime.GOMAXPROCS(0)},
	}
	for _, tc := range cases {
		if got := (Config{Workers: tc.workers}).workers(tc.jobs); got != tc.want {
			t.Errorf("%d workers for %d jobs: started %d, want %d", tc.workers, tc.jobs, got, tc.want)
		}
	}
}

func TestSweepPanicsOnZeroReplicas(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero replicas should panic")
		}
	}()
	Sweep(Config{}, []Point{{Name: "x", Run: func(int64) (Metrics, map[string]*stats.TDigest) { return nil, nil }}})
}

func ExampleSweep() {
	parity := Point{Name: "parity", Run: func(seed int64) (Metrics, map[string]*stats.TDigest) {
		return Metrics{"parity": float64(seed % 2)}, nil
	}}
	res := Sweep(Config{Replicas: 4, Workers: 2, BaseSeed: 1}, []Point{parity})
	fmt.Println(res[0].Metrics["parity"].N)
	// Output: 4
}

// TestPooledRequestPathRaceUnderSweep drives the pooled allocation-free
// request path (invocation + message free lists, typed-arg DES
// callbacks) concurrently across sweep workers. Each replica owns its
// own Sim/Bus/Controller, so pooling must introduce no shared state;
// this test exists to fail under `go test -race` if it ever does. It
// is deliberately small and not Short-guarded: the CI race gate runs
// -short, and this is the pooled path's coverage there.
func TestPooledRequestPathRaceUnderSweep(t *testing.T) {
	run := func(seed int64) Metrics {
		cfg := experiments.FibDay(seed)
		cfg.Nodes = 64
		cfg.Horizon = 20 * time.Minute
		cfg.QPS = 2
		cfg.NumActions = 5
		r, _ := experiments.RunDayCtx(context.Background(), cfg, nil) // never canceled
		return r.Metrics()
	}
	res := replicate(Config{Replicas: 4, Workers: runtime.GOMAXPROCS(0), BaseSeed: 9}, run)
	if res.Replicas != 4 {
		t.Fatalf("replicas = %d, want 4", res.Replicas)
	}
	inv := res.Metrics["invoked-share"]
	if inv.N != 4 {
		t.Fatalf("invoked-share aggregated %d replicas, want 4", inv.N)
	}
}
