// Package stats provides the measurement substrate used by every
// experiment in the HPC-Whisk reproduction: sample quantiles and CDFs,
// time-weighted state accounting over the virtual clock, per-minute
// time series, and streaming moments.
package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// sampleBlock is the length of the blocks a large Sample grows by:
// 2^15 observations, 256 KiB.
const sampleBlock = 1 << 15

// Sample accumulates scalar observations and answers distributional
// queries. The zero value is ready to use.
//
// The buffer grows by append until it holds sampleBlock observations;
// from then on each full buffer is parked and a new one of exactly
// sampleBlock starts, so a large sample allocates about twice its size
// where append growth would allocate about five times, and needs no
// size hint. The first read that needs every observation gathers the
// parked blocks into one slice of exactly Len values, in insertion
// order.
type Sample struct {
	xs     []float64   // the observations after the parked blocks; all of them once gathered
	parked [][]float64 // full blocks, in insertion order
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	if len(s.xs) >= sampleBlock {
		s.parked = append(s.parked, s.xs)
		s.xs = make([]float64, 0, sampleBlock)
	}
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration records a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Len returns the number of observations.
func (s *Sample) Len() int {
	n := len(s.xs)
	for _, b := range s.parked {
		n += len(b)
	}
	return n
}

// gather moves the parked blocks and the buffer after them into one
// slice of exactly Len values, in insertion order, for the reads that
// need every observation in one place.
func (s *Sample) gather() {
	if len(s.parked) == 0 {
		return
	}
	xs := make([]float64, 0, s.Len())
	for _, b := range s.parked {
		xs = append(xs, b...)
	}
	s.xs = append(xs, s.xs...)
	s.parked = nil
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) with linear interpolation.
// It panics if the sample is empty. A sorted buffer (after Min, Max or
// a CDF query) is indexed; otherwise the order statistics are selected
// in place, in O(n) and without allocating, which reorders the buffer
// (see Mean).
func (s *Sample) Quantile(p float64) float64 {
	s.gather()
	if len(s.xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	if p <= 0 {
		return s.orderStat(0)
	}
	if p >= 1 {
		return s.orderStat(len(s.xs) - 1)
	}
	pos := p * float64(len(s.xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s.xs) {
		return s.orderStat(len(s.xs) - 1)
	}
	s.orderStat(i)
	next := s.xs[i+1]
	if !s.sorted {
		// Every element after i is at least xs[i]; the least of them
		// is the next order statistic.
		for _, x := range s.xs[i+2:] {
			if cmp.Less(x, next) {
				next = x
			}
		}
	}
	return s.xs[i]*(1-frac) + next*frac
}

// orderStat returns the k-th smallest observation, as xs[k] of the
// sorted buffer would be.
func (s *Sample) orderStat(k int) float64 {
	if !s.sorted {
		selectNth(s.xs, k)
	}
	return s.xs[k]
}

// selectNth reorders xs so that xs[k] holds what sort.Float64s would put
// there, with nothing greater before it and nothing less after it. It
// orders like sort.Float64s (cmp.Less, NaNs first). Each round
// partitions the range holding k around the median of its first,
// middle and last elements; after 2·bits.Len(n) rounds the rest of the
// range is sorted, so no input costs more than a sort.
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for rounds := 2 * bits.Len(uint(len(xs))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(xs[lo : hi+1])
			return
		}
		if j := partition(xs, lo, hi); k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
}

// partition is Hoare's: for lo < hi it returns j with lo ≤ j < hi such
// that nothing in xs[lo..j] is greater than the pivot and nothing in
// xs[j+1..hi] is less. Both scans stop on elements equal to the pivot,
// so a run of equal values splits evenly.
func partition(xs []float64, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if cmp.Less(xs[mid], xs[lo]) {
		xs[lo], xs[mid] = xs[mid], xs[lo]
	}
	if cmp.Less(xs[hi], xs[mid]) {
		xs[mid], xs[hi] = xs[hi], xs[mid]
		if cmp.Less(xs[mid], xs[lo]) {
			xs[lo], xs[mid] = xs[mid], xs[lo]
		}
	}
	// With the pivot first, j ends below hi: both parts are non-empty.
	xs[lo], xs[mid] = xs[mid], xs[lo]
	pivot := xs[lo]
	i, j := lo-1, hi+1
	for {
		for i++; cmp.Less(xs[i], pivot); i++ {
		}
		for j--; cmp.Less(pivot, xs[j]); j-- {
		}
		if i >= j {
			return j
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Median returns the 0.5-quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean; 0 for an empty sample. It sums in
// the buffer's current order: insertion order until a query other than
// Len and Mean reorders it, so a mean read after such a query can
// differ in its last bits from one read before.
func (s *Sample) Mean() float64 {
	s.gather()
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
	s.gather()
	if len(s.xs) == 0 {
		panic("stats: min of empty sample")
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max returns the largest observation. It panics if empty.
func (s *Sample) Max() float64 {
	s.gather()
	if len(s.xs) == 0 {
		panic("stats: max of empty sample")
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// CDFAt returns the fraction of observations ≤ x.
func (s *Sample) CDFAt(x float64) float64 {
	s.gather()
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
