package coverage

import (
	"testing"
	"time"

	"repro/internal/workload"
)

func mins(m int) time.Duration { return time.Duration(m) * time.Minute }

func singlePeriodTrace(length time.Duration) *workload.Trace {
	return &workload.Trace{
		Nodes:   1,
		Horizon: length + time.Hour,
		Periods: []workload.IdlePeriod{{Node: 0, Start: 0, End: length, DeclaredEnd: length}},
	}
}

// The paper's worked example (§IV-B): a 21-minute idle period packed
// with set A1 gets jobs of 14 and 6 minutes; 1 minute stays unused.
func TestPaperExample21Minutes(t *testing.T) {
	tr := singlePeriodTrace(21 * time.Minute)
	a1 := TableISets()[0]
	r := Simulate(tr, a1, DefaultConfig())
	if r.Jobs != 2 {
		t.Fatalf("jobs = %d, want 2 (14m + 6m)", r.Jobs)
	}
	wantUnused := 1.0 / 21.0
	if diff := r.ShareNotUsed - wantUnused; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("unused share = %.4f, want %.4f", r.ShareNotUsed, wantUnused)
	}
	wantWarm := (2 * 20.0) / (21 * 60)
	if diff := r.ShareWarmup - wantWarm; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("warm-up share = %.4f, want %.4f", r.ShareWarmup, wantWarm)
	}
}

func TestWindowBelowMinimumUnused(t *testing.T) {
	tr := singlePeriodTrace(90 * time.Second)
	r := Simulate(tr, TableISets()[0], DefaultConfig())
	if r.Jobs != 0 {
		t.Fatalf("jobs = %d, want 0", r.Jobs)
	}
	if r.ShareNotUsed != 1 {
		t.Errorf("unused = %.3f, want 1", r.ShareNotUsed)
	}
}

func TestMaxJobCapRespected(t *testing.T) {
	tr := singlePeriodTrace(5 * time.Hour)
	cfg := DefaultConfig()
	r := Simulate(tr, Set{Name: "big", Lengths: []time.Duration{4 * time.Hour, mins(2)}}, cfg)
	// The 4-hour length exceeds the 120-minute cap, so only 2-minute
	// jobs are used: 150 of them.
	if r.Jobs != 150 {
		t.Errorf("jobs = %d, want 150", r.Jobs)
	}
}

func TestGreedyFillsEvenWindowsCompletely(t *testing.T) {
	// Every set contains 2 and 4 minutes, so any even window packs
	// fully; unused share must then be identical across sets — the
	// effect behind Table I's constant 15.44% column.
	tr := singlePeriodTrace(62 * time.Minute)
	for _, set := range TableISets() {
		r := Simulate(tr, set, DefaultConfig())
		if r.ShareNotUsed > 1e-9 {
			t.Errorf("set %s left %.4f unused in an even window", r.Set.Name, r.ShareNotUsed)
		}
	}
}

func TestSetBNeedsMoreJobsThanA1(t *testing.T) {
	// §IV-B: a 62-minute idle node gets 5 set-B jobs but only 2-3 from
	// the A sets.
	tr := singlePeriodTrace(62 * time.Minute)
	sets := TableISets()
	a1 := Simulate(tr, sets[0], DefaultConfig())
	b := Simulate(tr, sets[3], DefaultConfig())
	if b.Jobs != 5 { // 32+16+8+4+2
		t.Errorf("set B jobs = %d, want 5", b.Jobs)
	}
	if a1.Jobs >= b.Jobs {
		t.Errorf("A1 jobs = %d, want fewer than B's %d", a1.Jobs, b.Jobs)
	}
	if a1.ShareWarmup >= b.ShareWarmup {
		t.Errorf("A1 warm-up %.4f should be below B's %.4f", a1.ShareWarmup, b.ShareWarmup)
	}
}

func TestReadyWorkerSeries(t *testing.T) {
	// Two overlapping single-node periods on different nodes.
	tr := &workload.Trace{
		Nodes:   2,
		Horizon: time.Hour,
		Periods: []workload.IdlePeriod{
			{Node: 0, Start: 0, End: mins(10), DeclaredEnd: mins(10)},
			{Node: 1, Start: mins(5), End: mins(15), DeclaredEnd: mins(15)},
		},
	}
	r := Simulate(tr, Set{Name: "only10", Lengths: []time.Duration{mins(10)}}, DefaultConfig())
	if r.Jobs != 2 {
		t.Fatalf("jobs = %d, want 2", r.Jobs)
	}
	// Ready overlap ⇒ max 2 workers for ~5 minutes; zero after 15 min.
	if r.ReadyAvg <= 0 {
		t.Error("ready avg should be positive")
	}
	if r.NonAvailability < 0.7 || r.NonAvailability > 0.8 {
		// 60-min horizon, workers ready ≈ [0:20,10:00] + [5:20,15:00] →
		// zero-ready ≈ 45.7/60 ≈ 0.76.
		t.Errorf("non-availability = %.3f, want ≈0.76", r.NonAvailability)
	}
}

// TestTableIWeekTrace regenerates Table I's structure on the calibrated
// week trace: (1) unused share identical across sets; (2) warm-up share
// ordering C2 < C1 ≈ A1 < A2/A3 < B; (3) job counts ordered B > A2 >
// A1 > C2; (4) ready share ≈ 80%; (5) non-availability ≥ saturated
// share of the trace.
func TestTableIWeekTrace(t *testing.T) {
	tr := workload.DefaultIdleProcess(2239, 7*24*time.Hour, 1).Generate()
	var results []Result
	for _, set := range TableISets() {
		results = append(results, Simulate(tr, set, DefaultConfig()))
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Set.Name] = r
	}

	base := results[0].ShareNotUsed
	for _, r := range results {
		if d := r.ShareNotUsed - base; d < -1e-9 || d > 1e-9 {
			t.Errorf("unused share differs: %s %.4f vs A1 %.4f", r.Set.Name, r.ShareNotUsed, base)
		}
	}
	if base < 0.10 || base > 0.35 {
		t.Errorf("unused share = %.4f, want ≈0.15 (paper 15.44%%)", base)
	}

	if !(byName["B"].Jobs > byName["A2"].Jobs && byName["A2"].Jobs > byName["A1"].Jobs &&
		byName["A1"].Jobs > byName["C2"].Jobs) {
		t.Errorf("job-count ordering broken: B=%d A2=%d A1=%d C2=%d",
			byName["B"].Jobs, byName["A2"].Jobs, byName["A1"].Jobs, byName["C2"].Jobs)
	}

	if byName["B"].ShareWarmup <= byName["A1"].ShareWarmup {
		t.Errorf("warm-up: B %.4f should exceed A1 %.4f",
			byName["B"].ShareWarmup, byName["A1"].ShareWarmup)
	}
	if byName["C2"].ShareWarmup >= byName["A1"].ShareWarmup {
		t.Errorf("warm-up: C2 %.4f should be below A1 %.4f",
			byName["C2"].ShareWarmup, byName["A1"].ShareWarmup)
	}

	for _, r := range results {
		if r.ShareReady < 0.60 || r.ShareReady > 0.90 {
			t.Errorf("set %s ready share = %.4f, want ≈0.80", r.Set.Name, r.ShareReady)
		}
		if r.NonAvailability < 0.08 || r.NonAvailability > 0.30 {
			t.Errorf("set %s non-availability = %.4f, want ≈0.15", r.Set.Name, r.NonAvailability)
		}
		if r.ReadyAvg < 4 || r.ReadyAvg > 12 {
			t.Errorf("set %s ready avg = %.2f, want ≈7.4", r.Set.Name, r.ReadyAvg)
		}
	}

	best := Best(results)
	if best.Set.Name != "C2" && best.Set.Name != "C1" && best.Set.Name != "A1" {
		t.Errorf("best set = %s, paper found C2 (81.20%%) then A1/C1 (80.6%%)", best.Set.Name)
	}
}

func TestEmptySetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty set should panic")
		}
	}()
	Simulate(singlePeriodTrace(mins(10)), Set{Name: "empty"}, DefaultConfig())
}
