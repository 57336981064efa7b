package workload

import (
	"container/heap"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refEndHeap is the container/heap adapter endHeap replaced, kept as the
// oracle of its pop order.
type refEndHeap []activePeriod

func (h refEndHeap) Len() int           { return len(h) }
func (h refEndHeap) Less(i, j int) bool { return h[i].end < h[j].end }
func (h refEndHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refEndHeap) Push(x any)        { *h = append(*h, x.(activePeriod)) }
func (h *refEndHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEndHeapMatchesContainerHeap requires endHeap to pop in
// container/heap's order over random pushes and pops whose ends are drawn
// from two to five values, so nearly every pop breaks a tie: the order
// tied periods pop in is the order their nodes return to the free set.
func TestEndHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		values := 2 + rng.Intn(4)
		var got endHeap
		var want refEndHeap
		ties := 0
		for op, id := 0, 0; op < 2_000 || len(got) > 0; op++ {
			if op < 2_000 && (len(got) == 0 || rng.Intn(5) < 3) {
				a := activePeriod{end: float64(rng.Intn(values)), node: id, idx: id}
				id++
				got.push(a)
				heap.Push(&want, a)
				continue
			}
			if len(got) > 1 && got[0].end == got[1].end || len(got) > 2 && got[0].end == got[2].end {
				ties++
			}
			g, w := got.pop(), heap.Pop(&want).(activePeriod)
			if g != w {
				t.Fatalf("seed %d op %d: popped %+v, container/heap pops %+v", seed, op, g, w)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d: %d entries left, container/heap has %d", seed, op, len(got), len(want))
			}
		}
		if ties < 500 {
			t.Errorf("seed %d: only %d pops broke a tie at the top", seed, ties)
		}
	}
}

// TestSortMatchesSortSlice requires Trace.Sort to order generated traces,
// and shuffled copies of them, as the sort.Slice on (Start, Node) it
// replaced did. The key is unique (a node's periods never share a start),
// so any correct sort gives one order.
func TestSortMatchesSortSlice(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr := DefaultIdleProcess(2239, 24*time.Hour, seed).Generate()
		rng := rand.New(rand.NewSource(seed))
		shuffled := slices.Clone(tr.Periods)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, in := range [][]IdlePeriod{tr.Periods, shuffled} {
			want := slices.Clone(in)
			sort.Slice(want, func(i, j int) bool {
				if want[i].Start != want[j].Start {
					return want[i].Start < want[j].Start
				}
				return want[i].Node < want[j].Node
			})
			got := &Trace{Nodes: tr.Nodes, Horizon: tr.Horizon, Periods: slices.Clone(in)}
			got.Sort()
			if !slices.Equal(got.Periods, want) {
				t.Fatalf("seed %d: Sort differs from sort.Slice over %d periods", seed, len(in))
			}
		}
	}
}
