package stats

import (
	"math"
	"testing"
)

func TestSummarizeEmpty(t *testing.T) {
	if got := Summarize(nil); got != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", got)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Std != 0 || s.CI95 != 0 || s.Min != 3 || s.Max != 3 {
		t.Fatalf("Summarize([3]) = %+v", s)
	}
}

// TestSummarizeContract pins the documented edge-case contract: empty
// and single-replica inputs yield NaN-free zero-spread summaries, and
// non-finite observations are dropped rather than poisoning the
// aggregate.
func TestSummarizeContract(t *testing.T) {
	nanFree := func(name string, s Summary) {
		t.Helper()
		for field, v := range map[string]float64{
			"Mean": s.Mean, "Std": s.Std, "CI95": s.CI95,
			"Min": s.Min, "P25": s.P25, "Median": s.Median, "P75": s.P75, "Max": s.Max,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want finite", name, field, v)
			}
		}
	}
	nanFree("empty", Summarize(nil))
	nanFree("empty-slice", Summarize([]float64{}))
	nanFree("single", Summarize([]float64{42}))

	single := Summarize([]float64{42})
	if single.N != 1 || single.Median != 42 || single.P25 != 42 || single.P75 != 42 {
		t.Errorf("single-replica quantiles = %+v, want all 42", single)
	}

	// Non-finite replicas are dropped, not aggregated.
	mixed := Summarize([]float64{1, math.NaN(), 3, math.Inf(1), math.Inf(-1)})
	if mixed.N != 2 || mixed.Mean != 2 || mixed.Min != 1 || mixed.Max != 3 {
		t.Errorf("Summarize with non-finite inputs = %+v, want N=2 over {1,3}", mixed)
	}
	nanFree("mixed", mixed)

	// All-non-finite degenerates to the empty contract.
	if got := Summarize([]float64{math.NaN(), math.Inf(1)}); got != (Summary{}) {
		t.Errorf("all-non-finite input = %+v, want zero Summary", got)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	// 1..5: mean 3, sample std sqrt(2.5), t(4 df)=2.776.
	s := Summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
	wantStd := math.Sqrt(2.5)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, wantStd)
	}
	wantCI := 2.776 * wantStd / math.Sqrt(5)
	if math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Errorf("CI95 = %v, want %v", s.CI95, wantCI)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles = %v/%v, want 2/4", s.P25, s.P75)
	}
}

func TestTCrit95Monotonic(t *testing.T) {
	if TCrit95(1) != 0 || TCrit95(0) != 0 {
		t.Error("CI is undefined below 2 observations")
	}
	prev := math.Inf(1)
	for n := 2; n < 100; n++ {
		c := TCrit95(n)
		if c > prev {
			t.Fatalf("t critical value increased at n=%d: %v > %v", n, c, prev)
		}
		prev = c
	}
	if TCrit95(1000) != 1.96 {
		t.Errorf("large-sample critical value = %v, want 1.96", TCrit95(1000))
	}
}
