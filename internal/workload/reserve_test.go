package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// TestGenerateReservesOnce: on the benchmark's day and week traces,
// Generate's up-front reservation holds every period, so the trace
// never regrows (a regrown slice's capacity differs from the
// reservation), and it overshoots by less than a quarter.
func TestGenerateReservesOnce(t *testing.T) {
	for seed := int64(7000); seed <= 7003; seed++ {
		week := experiments.FibDay(seed)
		week.Horizon = experiments.Week
		for _, day := range []experiments.DayConfig{experiments.FibDay(seed), experiments.VarDay(seed), week} {
			name := fmt.Sprintf("%s %v seed %d", day.Policy, day.Horizon, seed)
			tr, reserved := day.TraceConfig().GenerateReserving()
			n := len(tr.Periods)
			if cap(tr.Periods) != reserved {
				t.Errorf("%s: %d periods regrew the %d reserved to capacity %d", name, n, reserved, cap(tr.Periods))
			}
			if 4*(reserved-n) > n {
				t.Errorf("%s: reserved %d for %d periods", name, reserved, n)
			}
		}
	}
}
