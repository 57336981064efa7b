package coverage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// bufferedSimulate is the reduce Simulate replaced, kept as its
// reference: the same greedy packing, with the ready-worker count
// buffered in a stats.TimeWeighted and every statistic read from it.
// It returns the series too, for the tests that read it directly.
func bufferedSimulate(tr *workload.Trace, set Set, cfg Config) (Result, *stats.TimeWeighted) {
	lengths := append([]time.Duration(nil), set.Lengths...)
	sort.Slice(lengths, func(i, j int) bool { return lengths[i] > lengths[j] }) // longest first
	minLen := lengths[len(lengths)-1]

	res := Result{Set: set}
	var warmup, ready time.Duration

	type span struct{ start, end time.Duration }
	var readySpans []span

	for _, p := range tr.Periods {
		remaining := p.Len()
		at := p.Start
		for remaining >= minLen {
			var job time.Duration
			for _, l := range lengths {
				if l <= remaining && l <= cfg.MaxJob {
					job = l
					break
				}
			}
			if job == 0 {
				break
			}
			res.Jobs++
			w := cfg.WarmupCharge
			if w > job {
				w = job
			}
			warmup += w
			ready += job - w
			readySpans = append(readySpans, span{start: at + w, end: at + job})
			at += job
			remaining -= job
		}
	}

	total := tr.TotalIdle()
	if total > 0 {
		res.ShareWarmup = warmup.Seconds() / total.Seconds()
		res.ShareReady = ready.Seconds() / total.Seconds()
		res.ShareNotUsed = 1 - res.ShareWarmup - res.ShareReady
	}

	type ev struct {
		at    time.Duration
		delta int
	}
	evs := make([]ev, 0, 2*len(readySpans))
	for _, s := range readySpans {
		evs = append(evs, ev{s.start, +1}, ev{s.end, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	var tw stats.TimeWeighted
	tw.Observe(0, 0)
	n := 0
	for _, e := range evs {
		n += e.delta
		tw.Observe(e.at, float64(n))
	}
	tw.Finish(tr.Horizon)

	res.ReadyP25 = tw.Quantile(0.25)
	res.ReadyP50 = tw.Quantile(0.50)
	res.ReadyP75 = tw.Quantile(0.75)
	res.ReadyAvg = tw.TimeMean()
	res.NonAvailability = tw.FractionEqual(0)
	res.ReadyPerMinute = tw.Buckets(time.Minute)
	return res, &tw
}

// sameResult reports the first field in which got differs from want,
// comparing floats bit for bit.
func sameResult(got, want Result) error {
	if got.Set.Name != want.Set.Name || !slices.Equal(got.Set.Lengths, want.Set.Lengths) {
		return fmt.Errorf("set %v, want %v", got.Set, want.Set)
	}
	if got.Jobs != want.Jobs {
		return fmt.Errorf("jobs %d, want %d", got.Jobs, want.Jobs)
	}
	floats := []struct {
		name      string
		got, want float64
	}{
		{"ShareWarmup", got.ShareWarmup, want.ShareWarmup},
		{"ShareReady", got.ShareReady, want.ShareReady},
		{"ShareNotUsed", got.ShareNotUsed, want.ShareNotUsed},
		{"ReadyP25", got.ReadyP25, want.ReadyP25},
		{"ReadyP50", got.ReadyP50, want.ReadyP50},
		{"ReadyP75", got.ReadyP75, want.ReadyP75},
		{"ReadyAvg", got.ReadyAvg, want.ReadyAvg},
		{"NonAvailability", got.NonAvailability, want.NonAvailability},
	}
	for _, f := range floats {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Errorf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	if len(got.ReadyPerMinute) != len(want.ReadyPerMinute) {
		return fmt.Errorf("%d minutes, want %d", len(got.ReadyPerMinute), len(want.ReadyPerMinute))
	}
	for i, v := range got.ReadyPerMinute {
		if math.Float64bits(v) != math.Float64bits(want.ReadyPerMinute[i]) {
			return fmt.Errorf("minute %d: %v, want %v", i, v, want.ReadyPerMinute[i])
		}
	}
	return nil
}

// TestSweepMatchesBufferedReduce: Simulate's one-sweep reduce gives
// every Result field and the per-minute panel bit for bit as the
// buffered TimeWeighted reduce does, on calibrated traces of three
// horizons and two cluster sizes under every Table I set (432 cases).
func TestSweepMatchesBufferedReduce(t *testing.T) {
	if testing.Short() {
		t.Skip("generates twelve week traces")
	}
	cases := 0
	for seed := int64(1); seed <= 12; seed++ {
		for _, horizon := range []time.Duration{2 * time.Hour, 24 * time.Hour, 7 * 24 * time.Hour} {
			for _, nodes := range []int{8, 2239} {
				tr := workload.DefaultIdleProcess(nodes, horizon, seed).Generate()
				for _, set := range TableISets() {
					want, _ := bufferedSimulate(tr, set, DefaultConfig())
					if err := sameResult(Simulate(tr, set, DefaultConfig()), want); err != nil {
						t.Errorf("seed %d, %v, %d nodes, set %s: %v", seed, horizon, nodes, set.Name, err)
					}
					cases++
				}
			}
		}
	}
	if cases != 432 {
		t.Fatalf("compared %d cases, want 432", cases)
	}
}

// TestSweepMatchesBufferedReduceOnEdges covers the traces whose ready
// series has an edge the calibrated ones rarely reach.
func TestSweepMatchesBufferedReduceOnEdges(t *testing.T) {
	period := func(node int, start, end time.Duration) workload.IdlePeriod {
		return workload.IdlePeriod{Node: node, Start: start, End: end, DeclaredEnd: end}
	}
	noWarmup := DefaultConfig()
	noWarmup.WarmupCharge = 0
	allWarmup := DefaultConfig()
	allWarmup.WarmupCharge = time.Hour
	cases := []struct {
		name string
		tr   *workload.Trace
		set  Set
		cfg  Config
	}{
		{"no periods", &workload.Trace{Nodes: 4, Horizon: time.Hour},
			TableISets()[0], DefaultConfig()},
		{"period ending at the horizon", &workload.Trace{Nodes: 2, Horizon: time.Hour,
			Periods: []workload.IdlePeriod{period(0, 10*time.Minute, 30*time.Minute), period(1, 40*time.Minute, time.Hour)}},
			Set{Name: "10m", Lengths: []time.Duration{10 * time.Minute}}, DefaultConfig()},
		// Node 0's ready span ends at 10 min, where node 1's starts.
		{"end and start at one instant", &workload.Trace{Nodes: 2, Horizon: time.Hour,
			Periods: []workload.IdlePeriod{period(0, 0, 10*time.Minute), period(1, 9*time.Minute+40*time.Second, 25*time.Minute)}},
			Set{Name: "10m", Lengths: []time.Duration{10 * time.Minute}}, DefaultConfig()},
		// Back-to-back jobs on one node without warm-up: one span ends
		// where the next starts, the first at instant 0.
		{"back-to-back spans", &workload.Trace{Nodes: 1, Horizon: 90 * time.Second,
			Periods: []workload.IdlePeriod{period(0, 0, 90*time.Second)}},
			Set{Name: "30s", Lengths: []time.Duration{30 * time.Second}}, noWarmup},
		// Warm-up takes whole jobs: every span is empty.
		{"empty spans", &workload.Trace{Nodes: 3, Horizon: 2 * time.Hour,
			Periods: []workload.IdlePeriod{period(0, 0, time.Hour), period(2, 30*time.Minute, 2*time.Hour)}},
			TableISets()[3], allWarmup},
		{"shortest length exceeds every period", &workload.Trace{Nodes: 2, Horizon: 3 * time.Hour,
			Periods: []workload.IdlePeriod{period(0, 0, time.Hour), period(1, 0, 2*time.Hour)}},
			Set{Name: "3h", Lengths: []time.Duration{3 * time.Hour, 4 * time.Hour}}, DefaultConfig()},
		{"horizon not whole minutes", &workload.Trace{Nodes: 2, Horizon: 61*time.Minute + 7*time.Second,
			Periods: []workload.IdlePeriod{period(0, 90*time.Second, 61*time.Minute), period(1, 0, 61*time.Minute+7*time.Second)}},
			TableISets()[4], DefaultConfig()},
	}
	for _, tc := range cases {
		if err := tc.tr.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, _ := bufferedSimulate(tc.tr, tc.set, tc.cfg)
		if err := sameResult(Simulate(tc.tr, tc.set, tc.cfg), want); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
