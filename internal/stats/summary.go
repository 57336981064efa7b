package stats

import "math"

// Summary condenses replicated scalar observations (one value per
// experiment replica) into the aggregate form the sweep engine reports:
// mean with a 95% confidence half-width plus the quantile skeleton.
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`

	// CI95 is the half-width of the two-sided 95% confidence interval
	// for the mean (Student's t for small N, normal beyond the table);
	// 0 when N < 2.
	CI95 float64 `json:"ci95"`

	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	Max    float64 `json:"max"`
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..30
// degrees of freedom; larger samples use the normal 1.96.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% critical value for n-1 degrees of
// freedom (0 when n < 2).
func TCrit95(n int) float64 {
	df := n - 1
	switch {
	case df < 1:
		return 0
	case df <= len(tCrit95):
		return tCrit95[df-1]
	default:
		return 1.96
	}
}

// Summarize aggregates the observations of one metric across replicas.
//
// Edge-case contract (guarded by TestSummarizeContract): the result is
// always NaN-free. An empty input returns the zero Summary. A single
// observation returns N=1 with Mean/Min/quantiles/Max all equal to it
// and Std and CI95 zero (no spread is estimable from one replica).
// Non-finite observations (NaN, ±Inf — e.g. a ratio metric whose
// denominator was zero in one replica) are dropped before aggregation
// and do not count toward N, so one degenerate replica cannot poison a
// whole sweep cell.
func Summarize(xs []float64) Summary {
	var s Sample
	var w Welford
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		s.Add(x)
		w.Add(x)
	}
	if s.Len() == 0 {
		return Summary{}
	}
	out := Summary{
		N:      s.Len(),
		Mean:   w.Mean(),
		Std:    w.Std(),
		Min:    s.Min(),
		P25:    s.Quantile(0.25),
		Median: s.Median(),
		P75:    s.Quantile(0.75),
		Max:    s.Max(),
	}
	if out.N >= 2 {
		out.CI95 = TCrit95(out.N) * out.Std / math.Sqrt(float64(out.N))
	}
	return out
}
