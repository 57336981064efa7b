// Package stats provides the measurement substrate used by every
// experiment in the HPC-Whisk reproduction: sample quantiles and CDFs,
// time-weighted state accounting over the virtual clock, per-minute
// time series, and streaming moments.
package stats

import (
	"math"
	"sort"
	"time"
)

// Sample accumulates scalar observations and answers distributional
// queries. The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration records a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) with linear interpolation.
// It panics if the sample is empty.
func (s *Sample) Quantile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := p * float64(len(s.xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[i]*(1-frac) + s.xs[i+1]*frac
}

// Median returns the 0.5-quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean; 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation. It panics if empty.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		panic("stats: min of empty sample")
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max returns the largest observation. It panics if empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		panic("stats: max of empty sample")
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// CDFAt returns the fraction of observations ≤ x.
func (s *Sample) CDFAt(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	n := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(s.xs))
}

// CDF renders the sample as (x, F(x)) points at the given probe points,
// e.g. to regenerate the paper's CDF figures.
func (s *Sample) CDF(probes []float64) []CDFPoint {
	out := make([]CDFPoint, len(probes))
	for i, x := range probes {
		out[i] = CDFPoint{X: x, F: s.CDFAt(x)}
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64
	F float64
}

// Welford tracks streaming mean and variance without storing samples.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 points).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }
