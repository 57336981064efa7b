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

// sampleGrowth is how many observations the first buffer holds, grown
// by append, before it grows to a whole block at once.
const sampleGrowth = 1 << 12

// Sample accumulates scalar observations and answers distributional
// queries. The zero value is ready to use.
//
// The buffer grows by append until it holds sampleGrowth observations,
// then to sampleBlock in one step; from then on each full buffer is
// parked and a new one of exactly sampleBlock starts, so a large sample
// allocates little more than its size where append growth would
// allocate about five times, a small one no more than append does, and
// none needs a size hint. Quantile, Median and Mean read the parked
// blocks and the buffer after them in place, as one sequence in
// insertion order; only the sorted reads (Min, Max, CDFAt, CDF) gather
// them into one slice.
type Sample struct {
	xs     []float64   // the observations after the parked blocks; all of them once gathered
	parked [][]float64 // full blocks, in insertion order; a gathered buffer parks longer than sampleBlock
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	switch n := len(s.xs); {
	case n >= sampleBlock:
		s.parked = append(s.parked, s.xs)
		s.xs = make([]float64, 0, sampleBlock)
	case n == cap(s.xs) && n >= sampleGrowth:
		s.xs = append(make([]float64, 0, sampleBlock), s.xs...)
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
// slice of exactly Len values, in insertion order, for the sorted reads,
// which sort and search every observation in one place.
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
	n := s.Len()
	if n == 0 {
		panic("stats: quantile of empty sample")
	}
	if p <= 0 {
		return s.orderStat(0)
	}
	if p >= 1 {
		return s.orderStat(n - 1)
	}
	pos := p * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return s.orderStat(n - 1)
	}
	s.orderStat(i)
	next := *s.at(i + 1)
	if !s.sorted {
		// Every element after i is at least the i-th; the least of
		// them is the next order statistic.
		s.spans(i+2, n-1, func(xs []float64) {
			for _, x := range xs {
				if cmp.Less(x, next) {
					next = x
				}
			}
		})
	}
	return *s.at(i)*(1-frac) + next*frac
}

// orderStat returns the k-th smallest observation, as element k of the
// sorted buffer would be.
func (s *Sample) orderStat(k int) float64 {
	if !s.sorted {
		s.selectNth(k)
	}
	return *s.at(k)
}

// block returns block b of the observations read as one sequence in
// insertion order: the parked blocks, then the buffer after them. The
// blocks need not be of equal length: a gathered buffer parks as one
// longer block.
func (s *Sample) block(b int) []float64 {
	if b < len(s.parked) {
		return s.parked[b]
	}
	return s.xs
}

// locate returns the block holding element i and i's offset in it.
func (s *Sample) locate(i int) (b, o int) {
	for b < len(s.parked) && i >= len(s.parked[b]) {
		i -= len(s.parked[b])
		b++
	}
	return b, i
}

// start returns the index of block b's first element.
func (s *Sample) start(b int) int {
	i := 0
	for _, xs := range s.parked[:b] {
		i += len(xs)
	}
	return i
}

// at returns element i.
func (s *Sample) at(i int) *float64 {
	b, o := s.locate(i)
	return &s.block(b)[o]
}

// spans calls f on the runs of elements lo..hi that share a block, in
// order.
func (s *Sample) spans(lo, hi int, f func(xs []float64)) {
	b, o := s.locate(lo)
	for n := hi - lo + 1; n > 0; b, o = b+1, 0 {
		xs := s.block(b)[o:]
		xs = xs[:min(len(xs), n)]
		n -= len(xs)
		f(xs)
	}
}

// selectNth reorders the sequence so that element k holds what
// sort.Float64s would put there, with nothing greater before it and
// nothing less after it. It orders like sort.Float64s (cmp.Less, NaNs
// first). Each round partitions the range holding k around the median of
// its first, middle and last elements; after 2·bits.Len(n) rounds the
// rest of the range is sorted, so no input costs more than a sort.
func (s *Sample) selectNth(k int) {
	n := s.Len()
	lo, hi := 0, n-1
	for rounds := 2 * bits.Len(uint(n)); lo < hi; rounds-- {
		if rounds == 0 {
			s.sortRange(lo, hi)
			return
		}
		if j := s.partition(lo, hi); k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
}

// sortRange sorts elements lo..hi as slices.Sort sorts them in one
// slice: it copies them out, sorts the copy and copies it back.
func (s *Sample) sortRange(lo, hi int) {
	xs := make([]float64, 0, hi-lo+1)
	s.spans(lo, hi, func(run []float64) { xs = append(xs, run...) })
	slices.Sort(xs)
	s.spans(lo, hi, func(run []float64) { xs = xs[copy(run, xs):] })
}

// partition is Hoare's: for lo < hi it returns j with lo ≤ j < hi such
// that nothing in elements lo..j is greater than the pivot and nothing in
// j+1..hi is less. Both scans stop on elements equal to the pivot, so a
// run of equal values splits evenly. Each scan walks one block at a time.
func (s *Sample) partition(lo, hi int) int {
	l, m, h := s.at(lo), s.at(int(uint(lo+hi)>>1)), s.at(hi)
	if cmp.Less(*m, *l) {
		*l, *m = *m, *l
	}
	if cmp.Less(*h, *m) {
		*m, *h = *h, *m
		if cmp.Less(*m, *l) {
			*l, *m = *m, *l
		}
	}
	// With the pivot first, j ends below hi: both parts are non-empty.
	*l, *m = *m, *l
	pivot := *l
	// i is element oi of block bi, xi; j is element oj of block bj, xj.
	bi, oi := s.locate(lo)
	bj, oj := s.locate(hi)
	xi, xj := s.block(bi), s.block(bj)
	oi, oj = oi-1, oj+1
	for {
		for {
			for oi++; oi < len(xi) && cmp.Less(xi[oi], pivot); oi++ {
			}
			if oi < len(xi) {
				break
			}
			bi++
			xi, oi = s.block(bi), -1
		}
		for {
			for oj--; oj >= 0 && cmp.Less(pivot, xj[oj]); oj-- {
			}
			if oj >= 0 {
				break
			}
			bj--
			xj = s.block(bj)
			oj = len(xj)
		}
		if bi > bj || bi == bj && oi >= oj {
			return s.start(bj) + oj
		}
		xi[oi], xj[oj] = xj[oj], xi[oi]
	}
}

// Median returns the 0.5-quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean; 0 for an empty sample. It sums the
// blocks front to back in their current order: insertion order until a
// query other than Len and Mean reorders them, so a mean read after such
// a query can differ in its last bits from one read before.
func (s *Sample) Mean() float64 {
	n := s.Len()
	if n == 0 {
		return 0
	}
	sum := 0.0
	s.spans(0, n-1, func(xs []float64) {
		for _, x := range xs {
			sum += x
		}
	})
	return sum / float64(n)
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
