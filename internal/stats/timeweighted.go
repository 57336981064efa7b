package stats

import (
	"sort"
	"time"
)

// TimeWeighted tracks a piecewise-constant value over virtual time and
// answers time-weighted queries (time average, fraction of time at or
// below a level, time-weighted quantiles). It backs the paper's
// "# of ready workers" statistics in Tables II and III.
type TimeWeighted struct {
	started  bool
	firstT   time.Duration
	lastT    time.Duration
	lastV    float64
	segments []segment
}

type segment struct {
	v   float64
	dur time.Duration
}

// Observe records that the value became v at instant t. Observations must
// arrive in nondecreasing time order.
func (tw *TimeWeighted) Observe(t time.Duration, v float64) {
	if tw.started {
		if t < tw.lastT {
			panic("stats: time-weighted observation out of order")
		}
		if t > tw.lastT {
			tw.segments = append(tw.segments, segment{v: tw.lastV, dur: t - tw.lastT})
		}
	} else {
		tw.firstT = t
	}
	tw.started = true
	tw.lastT = t
	tw.lastV = v
}

// Finish closes the final segment at instant end.
func (tw *TimeWeighted) Finish(end time.Duration) {
	if !tw.started {
		return
	}
	if end < tw.lastT {
		panic("stats: finish before last observation")
	}
	if end > tw.lastT {
		tw.segments = append(tw.segments, segment{v: tw.lastV, dur: end - tw.lastT})
	}
	tw.lastT = end
}

// Duration returns the total observed span.
func (tw *TimeWeighted) Duration() time.Duration {
	var total time.Duration
	for _, s := range tw.segments {
		total += s.dur
	}
	return total
}

// TimeMean returns the time-weighted average value.
func (tw *TimeWeighted) TimeMean() float64 {
	var total time.Duration
	sum := 0.0
	for _, s := range tw.segments {
		total += s.dur
		sum += s.v * s.dur.Seconds()
	}
	if total == 0 {
		return 0
	}
	return sum / total.Seconds()
}

// FractionAtOrBelow returns the fraction of time the value was ≤ x.
func (tw *TimeWeighted) FractionAtOrBelow(x float64) float64 {
	var total, at time.Duration
	for _, s := range tw.segments {
		total += s.dur
		if s.v <= x {
			at += s.dur
		}
	}
	if total == 0 {
		return 0
	}
	return at.Seconds() / total.Seconds()
}

// FractionEqual returns the fraction of time the value was exactly x.
func (tw *TimeWeighted) FractionEqual(x float64) float64 {
	var total, at time.Duration
	for _, s := range tw.segments {
		total += s.dur
		if s.v == x {
			at += s.dur
		}
	}
	if total == 0 {
		return 0
	}
	return at.Seconds() / total.Seconds()
}

// Quantile returns the time-weighted p-quantile of the value.
func (tw *TimeWeighted) Quantile(p float64) float64 {
	if len(tw.segments) == 0 {
		panic("stats: quantile of empty time-weighted series")
	}
	segs := make([]segment, len(tw.segments))
	copy(segs, tw.segments)
	sort.Slice(segs, func(i, j int) bool { return segs[i].v < segs[j].v })
	var total time.Duration
	for _, s := range segs {
		total += s.dur
	}
	target := time.Duration(p * float64(total))
	var cum time.Duration
	for _, s := range segs {
		cum += s.dur
		if cum >= target {
			return s.v
		}
	}
	return segs[len(segs)-1].v
}

// LongestRunWhere returns the longest contiguous span for which pred held.
func (tw *TimeWeighted) LongestRunWhere(pred func(v float64) bool) time.Duration {
	var longest, run time.Duration
	for _, s := range tw.segments {
		if pred(s.v) {
			run += s.dur
			if run > longest {
				longest = run
			}
		} else {
			run = 0
		}
	}
	return longest
}

// TotalWhere returns the total time for which pred held.
func (tw *TimeWeighted) TotalWhere(pred func(v float64) bool) time.Duration {
	var total time.Duration
	for _, s := range tw.segments {
		if pred(s.v) {
			total += s.dur
		}
	}
	return total
}

// Buckets renders the series as fixed-width bucket averages starting at
// the first observation — the per-minute worker-count panels of
// Figs. 5a and 6a. Partial trailing buckets are averaged over their
// observed portion.
func (tw *TimeWeighted) Buckets(width time.Duration) []float64 {
	if width <= 0 {
		panic("stats: non-positive bucket width")
	}
	if len(tw.segments) == 0 {
		return nil
	}
	total := tw.Duration()
	n := int((total + width - 1) / width)
	sums := make([]float64, n)
	covered := make([]time.Duration, n)
	at := tw.firstT
	for _, s := range tw.segments {
		segStart, segEnd := at, at+s.dur
		at = segEnd
		for cur := segStart; cur < segEnd; {
			i := int((cur - tw.firstT) / width)
			bEnd := tw.firstT + time.Duration(i+1)*width
			end := segEnd
			if bEnd < end {
				end = bEnd
			}
			if i >= 0 && i < n {
				sums[i] += s.v * (end - cur).Seconds()
				covered[i] += end - cur
			}
			cur = end
		}
	}
	out := make([]float64, n)
	for i := range out {
		if covered[i] > 0 {
			out[i] = sums[i] / covered[i].Seconds()
		}
	}
	return out
}

// SumTimeWeighted merges piecewise-constant series into their
// pointwise sum: the federation-global view of per-site worker counts
// or utilized capacity. The series may cover different spans; outside
// its observed span a series contributes 0. The result is already
// Finished at the latest observed instant (further Finish calls at
// that instant are no-ops). The merge is an event sweep over segment
// boundaries, O(E log E) in the total number of segments.
func SumTimeWeighted(series ...*TimeWeighted) *TimeWeighted {
	type event struct {
		t time.Duration
		d float64
	}
	var events []event
	var end time.Duration
	for _, tw := range series {
		if tw == nil || !tw.started {
			continue
		}
		at := tw.firstT
		for _, s := range tw.segments {
			if s.dur > 0 {
				events = append(events, event{at, s.v}, event{at + s.dur, -s.v})
			}
			at += s.dur
		}
		if at > end {
			end = at
		}
	}
	out := &TimeWeighted{}
	if len(events) == 0 {
		return out
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	sum := 0.0
	for i := 0; i < len(events); {
		t := events[i].t
		for i < len(events) && events[i].t == t {
			sum += events[i].d
			i++
		}
		out.Observe(t, sum)
	}
	out.Finish(end)
	return out
}

// MinuteSeries counts labeled events into fixed-width time buckets,
// regenerating the per-minute aggregation of Figs. 5b and 6b.
type MinuteSeries struct {
	Bucket  time.Duration
	buckets map[int]map[string]int
	maxIdx  int
}

// NewMinuteSeries builds a series with the given bucket width
// (time.Minute reproduces the paper's figures).
func NewMinuteSeries(bucket time.Duration) *MinuteSeries {
	if bucket <= 0 {
		panic("stats: non-positive bucket")
	}
	return &MinuteSeries{Bucket: bucket, buckets: map[int]map[string]int{}}
}

// Add counts one event with the given label at instant t.
func (ms *MinuteSeries) Add(t time.Duration, label string) {
	i := int(t / ms.Bucket)
	b := ms.buckets[i]
	if b == nil {
		b = map[string]int{}
		ms.buckets[i] = b
	}
	b[label]++
	if i > ms.maxIdx {
		ms.maxIdx = i
	}
}

// Buckets returns the number of buckets up to the last non-empty one.
func (ms *MinuteSeries) Buckets() int {
	if len(ms.buckets) == 0 {
		return 0
	}
	return ms.maxIdx + 1
}

// Totals sums each label across all buckets.
func (ms *MinuteSeries) Totals() map[string]int {
	out := map[string]int{}
	for _, b := range ms.buckets {
		for k, v := range b {
			out[k] += v
		}
	}
	return out
}

// Row is one rendered bucket of a MinuteSeries.
type Row struct {
	Start  time.Duration
	Counts map[string]int
}

// Rows renders all buckets in time order (empty buckets included).
func (ms *MinuteSeries) Rows() []Row {
	n := ms.Buckets()
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		counts := map[string]int{}
		for k, v := range ms.buckets[i] {
			counts[k] = v
		}
		rows[i] = Row{Start: time.Duration(i) * ms.Bucket, Counts: counts}
	}
	return rows
}
