package stats

import (
	"sort"
	"time"
)

// DefaultWindowKeep is how many recent buckets WindowedCounts retains
// by default: one hour of per-minute windows — enough for recent-rate
// queries and the tail panels, constant in horizon length.
const DefaultWindowKeep = 60

// WindowedCounts is the O(1)-memory streaming counterpart of
// MinuteSeries: it keeps exact per-label running totals for the whole
// run plus a bounded ring of the most recent buckets, instead of one
// map per bucket forever. Report-level shares (invoked/success/lost)
// come out identical to the buffered series because they only read
// Totals; per-bucket rendering (Rows, Count) is limited to the
// retained tail. Like MinuteSeries it is deterministic and not safe
// for concurrent use.
type WindowedCounts struct {
	Bucket time.Duration

	keep    int
	ring    []map[string]int // slot = idx % keep; maps are recycled in place
	slotIdx []int            // which bucket index each slot currently holds (-1 = empty)
	totals  map[string]int
	maxIdx  int
	any     bool
}

// NewWindowedCounts builds a windowed counter with the given bucket
// width, retaining the keep most recent buckets (≤0 selects
// DefaultWindowKeep).
func NewWindowedCounts(bucket time.Duration, keep int) *WindowedCounts {
	if bucket <= 0 {
		panic("stats: non-positive bucket")
	}
	if keep <= 0 {
		keep = DefaultWindowKeep
	}
	w := &WindowedCounts{
		Bucket:  bucket,
		keep:    keep,
		ring:    make([]map[string]int, keep),
		slotIdx: make([]int, keep),
		totals:  map[string]int{},
	}
	for i := range w.ring {
		w.ring[i] = map[string]int{}
		w.slotIdx[i] = -1
	}
	return w
}

// Add counts one event with the given label at instant t. Events
// older than the retained window still count toward Totals but are not
// re-materialized in the ring.
func (w *WindowedCounts) Add(t time.Duration, label string) {
	i := int(t / w.Bucket)
	w.totals[label]++
	if !w.any || i > w.maxIdx {
		w.maxIdx = i
	}
	w.any = true
	if i <= w.maxIdx-w.keep {
		return // before the retained window
	}
	slot := i % w.keep
	if w.slotIdx[slot] != i {
		m := w.ring[slot]
		for k := range m {
			delete(m, k) // compiles to a map clear; no allocation
		}
		w.slotIdx[slot] = i
	}
	w.ring[slot][label]++
}

// Totals sums each label across the whole run — exact, not windowed.
func (w *WindowedCounts) Totals() map[string]int {
	out := make(map[string]int, len(w.totals))
	for k, v := range w.totals {
		out[k] = v
	}
	return out
}

// Rows renders the retained buckets in time order. Unlike
// MinuteSeries.Rows this is only the tail of the run (at most Keep
// buckets); evicted history is gone by design.
func (w *WindowedCounts) Rows() []Row {
	if !w.any {
		return nil
	}
	idxs := make([]int, 0, w.keep)
	for _, i := range w.slotIdx {
		if i >= 0 {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	rows := make([]Row, 0, len(idxs))
	for _, i := range idxs {
		src := w.ring[i%w.keep]
		counts := make(map[string]int, len(src))
		for k, v := range src {
			counts[k] = v
		}
		rows = append(rows, Row{Start: time.Duration(i) * w.Bucket, Counts: counts})
	}
	return rows
}

// Footprint estimates the retained heap bytes — bounded by
// Keep × labels regardless of horizon (same flat per-entry estimate as
// MinuteSeries.Footprint so the two are comparable).
func (w *WindowedCounts) Footprint() int {
	n := len(w.slotIdx) * 8
	for _, m := range w.ring {
		n += 64 + 48*len(m)
	}
	n += 64 + 48*len(w.totals)
	return n
}
