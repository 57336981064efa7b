package stats

import (
	"math"
	"time"
)

// DefaultCompression is the t-digest compression the streaming metric
// paths use. At δ=200 the sketch holds at most ~2δ centroids (≈26 KB
// including buffers) and the observed rank error on the day-golden
// latency streams is well under the documented ε (see Epsilon).
const DefaultCompression = 200

// Epsilon returns the documented rank-error bound of a digest with the
// given compression: a Quantile(p) estimate corresponds to an exact
// quantile at some p' with |p'-p| ≤ Epsilon(compression). The k1 scale
// function concentrates centroids at the tails, so the practical error
// at p≤0.01 or p≥0.99 is far smaller; this bound is the one the
// property tests pin against exact Summarize quantiles on the
// fib-day/var-day goldens.
func Epsilon(compression float64) float64 {
	if compression <= 0 {
		compression = DefaultCompression
	}
	return 6 / compression
}

// centroid is one weighted cluster of a t-digest.
type centroid struct{ mean, weight float64 }

// TDigest is a mergeable quantile sketch (Dunning's t-digest, merging
// variant with the k1 scale function): observations stream in through
// Add/AddWeighted, memory stays O(compression) regardless of how many
// arrive, and Quantile answers within the Epsilon rank-error bound.
// Two digests built on disjoint streams Merge into the digest of the
// union, which is what lets sweep replicas and federation shards
// aggregate latency distributions without concatenating samples.
//
// The digest is allocation-free in steady state: all buffers are sized
// at construction (NewTDigest) and the periodic compaction merges in
// place through a preallocated scratch array, so week-scale runs add
// millions of observations with zero per-observation allocations. Like
// every collector in this package it is deterministic — the centroids
// are a pure function of the observation sequence — but it is not
// safe for concurrent use.
type TDigest struct {
	comp float64

	// proc holds the compacted centroids in ascending mean order; buf
	// accumulates raw observations until the next compaction; scratch
	// is the merge target the proc/buf slices ping-pong through.
	proc, buf, scratch []centroid

	procW float64 // total weight in proc
	bufW  float64 // total weight in buf

	n        int     // Add/AddWeighted call count
	min, max float64 // exact extremes

	// Weighted streaming mean (West's algorithm), so Mean is exact
	// alongside the ε-approximate quantiles.
	wsum, wmean float64
}

// NewTDigest builds a digest with the given compression δ (≤0 selects
// DefaultCompression). Larger δ means more centroids, more memory, and
// tighter quantiles; see Epsilon for the documented bound.
func NewTDigest(compression float64) *TDigest {
	if compression <= 0 {
		compression = DefaultCompression
	}
	if compression < 20 {
		compression = 20
	}
	maxCentroids := 2*int(math.Ceil(compression)) + 8
	return &TDigest{
		comp:    compression,
		proc:    make([]centroid, 0, maxCentroids),
		scratch: make([]centroid, 0, maxCentroids),
		buf:     make([]centroid, 0, 5*int(math.Ceil(compression))),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Add records one observation. Non-finite values are dropped, matching
// the Summarize contract.
func (t *TDigest) Add(x float64) { t.AddWeighted(x, 1) }

// AddDuration records a duration observation in seconds.
func (t *TDigest) AddDuration(d time.Duration) { t.Add(d.Seconds()) }

// AddWeighted records an observation with weight w (e.g. the duration
// a piecewise-constant series spent at a value). Non-positive weights
// and non-finite values are dropped.
func (t *TDigest) AddWeighted(x, w float64) {
	if w <= 0 || math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(w) || math.IsInf(w, 0) {
		return
	}
	if len(t.buf) == cap(t.buf) {
		t.compact()
	}
	t.buf = append(t.buf, centroid{mean: x, weight: w})
	t.bufW += w
	t.n++
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	t.wsum += w
	t.wmean += (w / t.wsum) * (x - t.wmean)
}

// Len returns the number of recorded observations (Add calls, not
// centroids), matching Sample.Len so the two satisfy one Collector
// contract.
func (t *TDigest) Len() int { return t.n }

// Mean returns the exact weighted mean of the observations (streaming
// moments, not centroid approximation); 0 when empty.
func (t *TDigest) Mean() float64 { return t.wmean }

// k1 scale function: k(q) = δ/(2π)·asin(2q−1). Centroid size limits
// derived from it shrink toward the tails, which is why extreme
// quantiles stay sharp.
func (t *TDigest) k(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return t.comp / (2 * math.Pi) * math.Asin(2*q-1)
}

// kInv inverts the scale function: q(k) = (sin(2πk/δ)+1)/2.
func (t *TDigest) kInv(k float64) float64 {
	lim := t.comp / 4
	if k >= lim {
		return 1
	}
	if k <= -lim {
		return 0
	}
	return (math.Sin(2*math.Pi*k/t.comp) + 1) / 2
}

// compact merges the buffered observations into the centroid set: sort
// the buffer, two-pointer merge with the existing centroids, and greedy
// recluster under the k1 size limits. Runs in place through scratch;
// no allocation.
func (t *TDigest) compact() {
	if len(t.buf) == 0 {
		return
	}
	sortCentroids(t.buf)
	total := t.procW + t.bufW
	out := t.scratch[:0]

	// Two-pointer merge over (proc, buf), reclustering on the fly.
	pi, bi := 0, 0
	next := func() centroid {
		if pi < len(t.proc) && (bi >= len(t.buf) || t.proc[pi].mean <= t.buf[bi].mean) {
			c := t.proc[pi]
			pi++
			return c
		}
		c := t.buf[bi]
		bi++
		return c
	}
	remaining := len(t.proc) + len(t.buf)

	cur := next()
	remaining--
	wSoFar := 0.0
	qLimit := total * t.kInv(t.k(0)+1)
	for ; remaining > 0; remaining-- {
		c := next()
		if wSoFar+cur.weight+c.weight <= qLimit {
			// Grow the current centroid (weighted mean keeps order).
			cur.mean += (c.weight / (cur.weight + c.weight)) * (c.mean - cur.mean)
			cur.weight += c.weight
		} else {
			wSoFar += cur.weight
			out = append(out, cur)
			qLimit = total * t.kInv(t.k(wSoFar/total)+1)
			cur = c
		}
	}
	out = append(out, cur)

	// Ping-pong: scratch becomes proc, the old proc array becomes the
	// next scratch.
	t.proc, t.scratch = out, t.proc[:0]
	t.procW = total
	t.buf = t.buf[:0]
	t.bufW = 0
}

// Quantile returns the ε-approximate p-quantile (0 ≤ p ≤ 1) with
// linear interpolation between centroid midpoints; the extremes are
// exact. It panics if the digest is empty, matching Sample.Quantile.
func (t *TDigest) Quantile(p float64) float64 {
	if t.n == 0 {
		panic("stats: quantile of empty digest")
	}
	t.compact()
	if p <= 0 {
		return t.min
	}
	if p >= 1 {
		return t.max
	}
	cs := t.proc
	if len(cs) == 1 {
		return cs[0].mean
	}
	target := p * t.procW

	// Walk cumulative midpoints: centroid i's mass is centered at
	// cum_i + w_i/2. Below the first midpoint lerp from the exact min,
	// above the last lerp to the exact max.
	cum := 0.0
	firstMid := cs[0].weight / 2
	if target <= firstMid {
		if firstMid == 0 {
			return cs[0].mean
		}
		return t.min + (target/firstMid)*(cs[0].mean-t.min)
	}
	for i := 0; i < len(cs)-1; i++ {
		mid := cum + cs[i].weight/2
		nextMid := cum + cs[i].weight + cs[i+1].weight/2
		if target <= nextMid {
			if nextMid == mid {
				return cs[i].mean
			}
			frac := (target - mid) / (nextMid - mid)
			return cs[i].mean + frac*(cs[i+1].mean-cs[i].mean)
		}
		cum += cs[i].weight
	}
	lastMid := cum + cs[len(cs)-1].weight/2
	if t.procW == lastMid {
		return cs[len(cs)-1].mean
	}
	frac := (target - lastMid) / (t.procW - lastMid)
	if frac > 1 {
		frac = 1
	}
	return cs[len(cs)-1].mean + frac*(t.max-cs[len(cs)-1].mean)
}

// Median returns the approximate 0.5-quantile.
func (t *TDigest) Median() float64 { return t.Quantile(0.5) }

// Merge folds other into t: the result summarizes the union of both
// observation streams (exact moments and extremes, ε-approximate
// quantiles). other is left untouched apart from being compacted.
// Merging a nil or empty digest is a no-op.
func (t *TDigest) Merge(other *TDigest) {
	if other == nil || other.n == 0 {
		return
	}
	other.compact()
	for _, c := range other.proc {
		if len(t.buf) == cap(t.buf) {
			t.compact()
		}
		t.buf = append(t.buf, c)
		t.bufW += c.weight
	}
	t.n += other.n
	if other.min < t.min {
		t.min = other.min
	}
	if other.max > t.max {
		t.max = other.max
	}
	// Chan et al. pairwise mean combination.
	if t.wsum == 0 {
		t.wsum, t.wmean = other.wsum, other.wmean
		return
	}
	w := t.wsum + other.wsum
	t.wmean += (other.wmean - t.wmean) * other.wsum / w
	t.wsum = w
}

// Clone returns an independent copy of the digest.
func (t *TDigest) Clone() *TDigest {
	out := NewTDigest(t.comp)
	out.Merge(t)
	return out
}

// Footprint returns the retained heap bytes of the digest — constant
// in the number of observations, the point of the whole exercise.
func (t *TDigest) Footprint() int {
	const centroidBytes = 16
	return (cap(t.proc) + cap(t.buf) + cap(t.scratch)) * centroidBytes
}

// sortCentroids sorts by ascending mean (insertion sort under 16
// elements, median-of-three quicksort above). A dedicated sort keeps
// the compaction allocation-free: sort.Slice's closure and
// reflect-based swapper would allocate on every flush, and
// sort.Interface would collide with the Collector method set.
// Equal-mean runs keep their relative order irrelevant — centroids
// with equal means are interchangeable downstream.
func sortCentroids(cs []centroid) {
	for len(cs) > 16 {
		// Median-of-three pivot, middle element to cs[0].
		m := len(cs) / 2
		lo, hi := 0, len(cs)-1
		if cs[m].mean < cs[lo].mean {
			cs[m], cs[lo] = cs[lo], cs[m]
		}
		if cs[hi].mean < cs[lo].mean {
			cs[hi], cs[lo] = cs[lo], cs[hi]
		}
		if cs[hi].mean < cs[m].mean {
			cs[hi], cs[m] = cs[m], cs[hi]
		}
		pivot := cs[m].mean
		i, j := 0, len(cs)-1
		for i <= j {
			for cs[i].mean < pivot {
				i++
			}
			for cs[j].mean > pivot {
				j--
			}
			if i <= j {
				cs[i], cs[j] = cs[j], cs[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j < len(cs)-i {
			sortCentroids(cs[:j+1])
			cs = cs[i:]
		} else {
			sortCentroids(cs[i:])
			cs = cs[:j+1]
		}
	}
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		j := i - 1
		for j >= 0 && cs[j].mean > c.mean {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = c
	}
}
