package coverage

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/workload"
)

// Property: for any generated trace and any Table I set, the packing is
// physically consistent — shares partition the surface, the warm-up
// share equals jobs × 20 s over the surface, and the ready-worker count
// never exceeds the trace's concurrent idle-node count.
func TestPropertyPackingConsistent(t *testing.T) {
	sets := TableISets()
	f := func(seed int64, rawNodes, rawSet uint8) bool {
		nodes := int(rawNodes%40) + 4
		cfg := workload.DefaultIdleProcess(nodes, 2*time.Hour, seed)
		cfg.MeanIdleNodes = 4
		tr := cfg.Generate()
		set := sets[int(rawSet)%len(sets)]
		r := Simulate(tr, set, DefaultConfig())

		total := r.ShareWarmup + r.ShareReady + r.ShareNotUsed
		if tr.TotalIdle() > 0 && (total < 0.999 || total > 1.001) {
			return false
		}
		wantWarm := float64(r.Jobs) * 20
		if tr.TotalIdle() > 0 {
			gotWarm := r.ShareWarmup * tr.TotalIdle().Seconds()
			if diff := gotWarm - wantWarm; diff < -1 || diff > 1 {
				return false
			}
		}
		// Ready workers can never exceed concurrently idle nodes.
		maxIdle := tr.IdleCount().Quantile(1.0)
		_, ready := bufferedSimulate(tr, set, DefaultConfig())
		maxReady := ready.Quantile(1.0)
		return maxReady <= maxIdle+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adding a longer length to a set never reduces the ready
// share (greedy packing is monotone in the length menu for a fixed
// minimum slot).
func TestPropertyMoreLengthsNeverHurt(t *testing.T) {
	f := func(seed int64) bool {
		cfg := workload.DefaultIdleProcess(24, 2*time.Hour, seed)
		cfg.MeanIdleNodes = 4
		tr := cfg.Generate()
		small := Set{Name: "small", Lengths: []time.Duration{
			2 * time.Minute, 4 * time.Minute,
		}}
		big := Set{Name: "big", Lengths: []time.Duration{
			2 * time.Minute, 4 * time.Minute, 8 * time.Minute, 30 * time.Minute,
		}}
		a := Simulate(tr, small, DefaultConfig())
		b := Simulate(tr, big, DefaultConfig())
		// The bigger menu replaces strings of short jobs with fewer
		// long ones: fewer warm-ups, so ready share cannot drop.
		return b.ShareReady >= a.ShareReady-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
