// Package des provides a deterministic discrete-event simulation kernel.
//
// All HPC-Whisk components (the Slurm emulator, the OpenWhisk emulation,
// the message bus, workload generators and load generators) are actors on
// a single virtual clock owned by a Sim. Events scheduled for the same
// instant execute in scheduling order, so a run is reproducible
// bit-for-bit given fixed inputs and seeds.
//
// The kernel is the hot path of every experiment (a 24-hour production
// run dispatches millions of events), so the queue holds pointer-free
// value entries ordered by (instant, sequence): no container/heap
// interface boxing, no per-event heap allocation, and no index
// maintenance. Callback slots are pooled in a free list and recycled as
// events fire; Event handles are small generation-checked values, so
// Stop and Pending on a handle whose slot has been recycled for a later
// scheduling are detected and refused rather than corrupting the queue.
//
// The queue has two parts: a two-level timing wheel and a binary min-heap.
// Nearly every event comes due within seconds of being scheduled (request
// hops, timeouts, grace periods), while a trace-driven run also schedules
// pilot walltimes and the ends of open idle periods minutes to hours
// ahead. An event due within the wheel's reach, the current block of
// 2^32 ns and the next 63 (about 4.6 min), goes to the wheel at O(1);
// every later one goes to the far heap. Level 0 of the wheel holds the
// current block in 4,096 buckets of 2^20 ns (about 1 ms); level 1 holds
// the next 63 blocks and cascades each into level 0 once, when it comes
// due. A bucket that comes due is sorted once into a short array whose
// last entry is the wheel's head, and an event due before that bucket
// ends is inserted into the array in order. Each dispatch fires the first of the wheel's head and
// the heap's top, so events still fire one at a time in the one (instant,
// sequence) order whichever part holds them. Stopped events leave stale
// entries behind (Stop is index-free): the wheel drops them when their
// bucket is sorted or cascaded, and the wheel and the heap are each
// compacted once their stale entries outnumber their live ones.
//
// The zero value of Sim is ready to use; its clock starts at instant 0.
package des

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// Time is an absolute instant on the virtual clock, expressed as the offset
// from the simulation epoch (instant 0). It aliases time.Duration so that
// ordinary duration arithmetic applies.
type Time = time.Duration

// Event is a handle to a scheduled callback, returned by Schedule and
// After so the caller can cancel it with Stop before it fires. It is a
// small value (copy freely); the zero Event is valid and refers to no
// scheduling. The handle stays safe forever: once the event fires or is
// stopped, its pooled slot may be recycled for a later scheduling, and
// the generation check makes Stop/Pending on the stale handle a no-op.
type Event struct {
	sim  *Sim
	when Time
	gen  uint32
	idx  int32
}

// node is one pooled callback slot. gen increments every time the slot
// is released (fired or stopped), so a queue entry or handle created for
// an earlier scheduling can never act on a later one. (uint32 suffices:
// a false match needs one slot to cycle exactly 2^32 times while a
// stale reference is held; whole runs schedule orders of magnitude
// fewer events.)
//
// A slot holds either a plain callback (fn) or a typed-argument pair
// (fnA, arg) from AfterCall or ScheduleCallIn; exactly one of fn/fnA is
// non-nil while the slot is live. The typed form lets hot-path callers
// reuse one long-lived func(any) (typically a cached method value)
// instead of allocating a capturing closure per event.
//
// far records that the event's entry waits in the far heap rather than
// the wheel, so Stop credits the stale count of the part that holds it.
type node struct {
	fn  func()
	fnA func(any)
	arg any
	gen uint32
	far bool
}

// entry is one queue element: 24 bytes (8+8+4+4), pointer-free, ordered
// by (when, seq) for the deterministic total order. The far heap and the
// wheel's sorted head array hold entries; the wheel's buckets hold them
// in links.
type entry struct {
	when Time
	seq  uint64
	gen  uint32
	idx  int32
}

// When reports the instant the event is (or was) scheduled to fire.
func (e Event) When() Time { return e.when }

// Scheduled reports whether the handle has ever referred to a
// scheduling (i.e. it is not the zero Event). Unlike Pending it stays
// true after the event fires.
func (e Event) Scheduled() bool { return e.sim != nil }

// Pending reports whether the event is still queued.
func (e Event) Pending() bool {
	return e.sim != nil && e.sim.nodes[e.idx].gen == e.gen
}

// Stop cancels the event. It reports whether the event was still pending;
// stopping an already-fired or already-stopped event is a no-op, even if
// the event's pooled slot has since been recycled for another scheduling.
func (e Event) Stop() bool {
	if e.sim == nil {
		return false
	}
	s := e.sim
	n := &s.nodes[e.idx]
	if n.gen != e.gen {
		return false
	}
	// Release the slot immediately; the queued entry becomes stale and
	// is skipped when it surfaces (the queue is index-free by design).
	n.fn, n.fnA, n.arg = nil, nil, nil
	n.gen++
	s.free = append(s.free, e.idx)
	s.npending--
	if n.far {
		s.far.dead++
	} else {
		s.wheel.dead++
	}
	return true
}

// Sim is a discrete-event simulation: a virtual clock plus a queue of
// pending events. Sim is not safe for concurrent use; the simulation
// executes in a single goroutine by design (determinism is the point).
// Independent Sims are fully isolated, so replicas of an experiment can
// run concurrently on one Sim each (as internal/sweep does).
type Sim struct {
	now      Time
	wheel    wheel
	far      farHeap
	nodes    []node
	free     []int32
	seq      uint64
	npending int
}

// New returns an empty simulation with its clock at instant 0.
func New() *Sim { return &Sim{} }

// Now returns the current virtual instant.
func (s *Sim) Now() Time { return s.now }

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.npending }

// Schedule queues fn to run at instant at. Scheduling in the past panics:
// a component that does so holds a stale view of the clock, which is a bug.
func (s *Sim) Schedule(at Time, fn func()) Event {
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	idx, n := s.acquire(at)
	n.fn = fn
	return s.enqueue(at, s.take(), idx, n)
}

// After queues fn to run d from now. A negative d panics.
func (s *Sim) After(d time.Duration, fn func()) Event {
	return s.Schedule(s.now+d, fn)
}

// AfterCall queues fn(arg) to run d from now. It is After for the hot
// path: fn is typically a long-lived func(any) (a method value cached
// once on the caller) and arg the per-event payload, so queueing an
// event allocates nothing — no closure is created and the (fn, arg)
// pair lives in the pooled slot. Events from AfterCall and Schedule
// share one total (instant, sequence) order. A negative d panics.
func (s *Sim) AfterCall(d time.Duration, fn func(any), arg any) Event {
	return s.scheduleCall(s.now+d, s.take(), fn, arg)
}

// Places is a run of sequence numbers that Reserve took ahead of the
// events that will use them.
type Places struct {
	first uint64
	n     int
}

// Reserve takes the next n sequence numbers now, as n schedulings in a
// row would, and returns them as places for ScheduleCallIn. An event
// queued into place i later fires where the i-th of those n schedulings
// would have: after the events at its instant scheduled before the
// reservation, before those scheduled after it. So a producer with a long
// ordered backlog (a trace's idle-period boundaries) can stream it into
// the queue a few events at a time without changing the firing order, as
// long as each event is queued before its place comes due. A negative n
// panics.
func (s *Sim) Reserve(n int) Places {
	if n < 0 {
		panic(fmt.Sprintf("des: reserve %d places", n))
	}
	p := Places{first: s.seq, n: n}
	s.seq += uint64(n)
	return p
}

// ScheduleCallIn queues fn(arg), as AfterCall does, to run at instant at
// in place i of ps, which must come from this Sim's Reserve and take one
// event only. Queued late, at the current instant behind an event that
// has fired already, the event still fires ahead of every pending event
// whose place comes after its own. A place outside ps panics.
func (s *Sim) ScheduleCallIn(ps Places, i int, at Time, fn func(any), arg any) Event {
	if i < 0 || i >= ps.n {
		panic(fmt.Sprintf("des: place %d outside a reservation of %d", i, ps.n))
	}
	return s.scheduleCall(at, ps.first+uint64(i), fn, arg)
}

// take hands out the next sequence number.
func (s *Sim) take() uint64 {
	s.seq++
	return s.seq - 1
}

// scheduleCall queues fn(arg) at instant at with sequence number seq.
func (s *Sim) scheduleCall(at Time, seq uint64, fn func(any), arg any) Event {
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	idx, n := s.acquire(at)
	n.fnA = fn
	n.arg = arg
	return s.enqueue(at, seq, idx, n)
}

// acquire validates the instant and takes a free callback slot.
func (s *Sim) acquire(at Time) (int32, *node) {
	if at < s.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, s.now))
	}
	var idx int32
	if k := len(s.free); k > 0 {
		idx = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		s.nodes = append(s.nodes, node{})
		idx = int32(len(s.nodes) - 1)
	}
	return idx, &s.nodes[idx]
}

// enqueue queues the filled slot with sequence number seq in the wheel,
// or in the far heap when it is due beyond the wheel's reach, and hands
// out the handle.
func (s *Sim) enqueue(at Time, seq uint64, idx int32, n *node) Event {
	e := entry{when: at, seq: seq, gen: n.gen, idx: idx}
	n.far = !s.wheel.push(e, s.now)
	if n.far {
		s.far.push(e)
	}
	s.npending++
	return Event{sim: s, when: at, gen: n.gen, idx: idx}
}

// fire releases e's slot and runs its callback. The caller must have
// checked that e is live (slot generation matches) and set the clock.
func (s *Sim) fire(e entry) {
	n := &s.nodes[e.idx]
	fn, fnA, arg := n.fn, n.fnA, n.arg
	n.fn, n.fnA, n.arg = nil, nil, nil
	n.gen++
	s.free = append(s.free, e.idx)
	s.npending--
	if fnA != nil {
		fnA(arg)
	} else {
		fn()
	}
}

// Step fires the earliest pending event, advancing the clock to its
// instant. It reports whether an event was fired.
func (s *Sim) Step() bool { return s.dispatch(maxTime, true) }

// Run fires events until the queue drains.
func (s *Sim) Run() { s.dispatch(maxTime, false) }

// RunUntil fires every event scheduled at or before end, then advances the
// clock to end (even if the queue drained earlier or is still non-empty).
func (s *Sim) RunUntil(end Time) {
	if end < s.now {
		panic(fmt.Sprintf("des: run until %v before now %v", end, s.now))
	}
	s.dispatch(end, false)
	s.now = end
}

// RunFor advances the simulation by d, firing every event in that window.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// maxTime is the last instant; dispatching up to it runs unbounded.
const maxTime = Time(math.MaxInt64)

// dispatch is the one event loop behind Step, Run and RunUntil: it
// fires events one at a time in (when, seq) order while the earliest
// pending event is due at or before last — only the first one if once
// is set. Reports whether an event fired.
func (s *Sim) dispatch(last Time, once bool) bool {
	fired := false
	for !fired || !once {
		e, inWheel, ok := s.next(last)
		if !ok {
			return fired
		}
		if inWheel {
			s.wheel.pop()
		} else {
			s.far.pop()
		}
		s.now = e.when
		s.fire(e)
		fired = true
	}
	return fired
}

// next returns the earliest live entry if it is due at or before last,
// and whether the wheel holds it (else the far heap does); ok is false
// when no live entry is due by last. It is the one top-of-queue helper
// behind every entry point. The wheel sorts a bucket only once it starts
// no later than the far top and last, so its head array does not run
// ahead of the clock and collect the events scheduled in between. The
// far heap is settled only when its top comes first: a stale far top
// behind the wheel's live head cannot matter, and checking it would
// touch a callback slot the request path never reads.
func (s *Sim) next(last Time) (e entry, inWheel, ok bool) {
	for {
		bound := last
		if len(s.far.h) > 0 && s.far.h[0].when < bound {
			bound = s.far.h[0].when
		}
		w, live := s.wheel.head(s.nodes, bound)
		if live && (len(s.far.h) == 0 || less(w, s.far.h[0])) {
			return w, true, w.when <= last
		}
		if s.far.settle(s.nodes) {
			continue // it discarded its top or compacted: look again
		}
		if len(s.far.h) == 0 || s.far.h[0].when > last {
			return entry{}, false, false
		}
		return s.far.h[0], false, true
	}
}

// NextAt reports the instant of the earliest live pending event, so a
// caller can drive the plane through Step up to an instant of its own
// choosing. ok is false when no live event is pending. The clock does
// not move and nothing fires.
func (s *Sim) NextAt() (at Time, ok bool) {
	e, _, ok := s.next(maxTime)
	return e.when, ok
}

// less orders entries by (when, seq): the deterministic total order.
func less(a, b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// The wheel's geometry: level-0 buckets of 2^bucketBits ns, blocks of
// 2^blockBits ns (one turn of level 0), and a reach of wheelBlocks
// blocks, the current one included. The bucket width sits below the
// request path's hops, the reach above its 60 s timeout and 3 min
// SIGTERM grace and below pilot walltimes and trace boundaries.
const (
	bucketBits  = 20 // about 1.05 ms
	blockBits   = 32 // about 4.3 s
	l0Buckets   = 1 << (blockBits - bucketBits)
	wheelBlocks = 64 // about 4.6 min
)

// wheel is the two-level timing wheel of the queue. Level 0 holds the
// entries of the current block (block) due at or after dueEnd, one
// bucket per 2^bucketBits ns; level 1 those of the next wheelBlocks-1
// blocks, one bucket per block. A bucket is a singly linked list threaded
// through links, and a bitmap per level marks the occupied buckets, so
// finding the next one skips 64 empty buckets per word. Every entry due
// before dueEnd waits in due instead, sorted.
type wheel struct {
	// due holds, in descending (when, seq) order, the entries of the
	// bucket sorted last and every event scheduled before its end since:
	// a zero-delay child, or one scheduled after the clock went back
	// (RunUntil sets it to its end after a re-entrant Step fired past
	// it). Its last entry is the wheel's head.
	due    []entry
	dueEnd Time

	block int64 // the block level 0 holds: an instant >> blockBits

	// Bucket heads as indices into links (0: empty), and occupancy bits.
	l0    [l0Buckets]int32
	bits0 [l0Buckets / 64]uint64
	l1    [wheelBlocks]int32
	bits1 uint64

	// links pools the buckets' list cells; links[0] is the null cell and
	// free heads the list of released ones, so steady state allocates
	// nothing.
	links []link
	free  int32

	// n counts the entries the wheel holds, in due and in its buckets;
	// dead counts the stopped ones among them. Stopped entries are
	// dropped when their bucket is sorted or cascaded, or when they reach
	// the end of due; compact drops them all once they outnumber the
	// live ones.
	n, dead int
}

// link is one cell of a bucket list.
type link struct {
	e    entry
	next int32
}

// push queues e, scheduled at now, and reports whether it is due within
// the wheel's reach; a later entry belongs in the far heap.
func (w *wheel) push(e entry, now Time) bool {
	if w.n == 0 {
		// Empty: start the reach at the clock's bucket.
		w.block = int64(now >> blockBits)
		w.dueEnd = now &^ (1<<bucketBits - 1)
	}
	if e.when < w.dueEnd {
		w.insertDue(e)
		w.n++
		return true
	}
	switch b := int64(e.when >> blockBits); {
	case b == w.block:
		i := int(e.when>>bucketBits) & (l0Buckets - 1)
		w.l0[i] = w.link(e, w.l0[i])
		w.bits0[i>>6] |= 1 << (i & 63)
	case b-w.block < wheelBlocks:
		j := int(b & (wheelBlocks - 1))
		w.l1[j] = w.link(e, w.l1[j])
		w.bits1 |= 1 << j
	default:
		return false
	}
	w.n++
	return true
}

// link fills a free cell (a new one when none is free) with e, ahead of
// next, and returns its index.
func (w *wheel) link(e entry, next int32) int32 {
	l := w.free
	if l != 0 {
		w.free = w.links[l].next
	} else {
		if len(w.links) == 0 {
			w.links = append(w.links, link{}) // the null cell
		}
		l = int32(len(w.links))
		w.links = append(w.links, link{})
	}
	w.links[l] = link{e: e, next: next}
	return l
}

// release returns cell l to the free list.
func (w *wheel) release(l int32) {
	w.links[l].next = w.free
	w.free = l
}

// insertDue inserts e into due in its place.
func (w *wheel) insertDue(e entry) {
	d := w.due
	lo, hi := 0, len(d) // the first index whose entry orders before e
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if less(d[m], e) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	d = append(d, entry{})
	copy(d[lo+1:], d[lo:])
	d[lo] = e
	w.due = d
}

// pop removes the head.
func (w *wheel) pop() {
	w.due = w.due[:len(w.due)-1]
	w.n--
}

// head returns the wheel's earliest live entry. It discards stale entries
// off the end of due and, once due runs empty, sorts the next occupied
// bucket into it, but only a bucket that starts at or before bound; it
// reports false when no live entry is left in due and no bucket starts by
// bound. It first compacts the wheel when its stale entries, more than
// 64, outnumber its live ones.
func (w *wheel) head(nodes []node, bound Time) (entry, bool) {
	if w.dead > 64 && 2*w.dead > w.n {
		w.compact(nodes)
	}
	for {
		for k := len(w.due) - 1; k >= 0; k-- {
			e := w.due[k]
			if nodes[e.idx].gen == e.gen {
				return e, true
			}
			w.due = w.due[:k]
			w.n--
			w.dead--
		}
		if !w.advance(nodes, bound) {
			return entry{}, false
		}
	}
}

// advance sorts the next occupied level-0 bucket into the empty due,
// first cascading the next occupied level-1 block into level 0 when the
// current block has no bucket left. It leaves a bucket or block that
// starts after bound where it is, and reports whether it sorted a bucket.
func (w *wheel) advance(nodes []node, bound Time) bool {
	for {
		if int64(w.dueEnd>>blockBits) == w.block {
			if i := w.next0(int(w.dueEnd>>bucketBits) & (l0Buckets - 1)); i >= 0 {
				start := Time(w.block)<<blockBits + Time(i)<<bucketBits
				if start > bound {
					return false
				}
				w.sort(nodes, i)
				w.dueEnd = start + 1<<bucketBits
				return true
			}
		}
		if w.bits1 == 0 {
			return false
		}
		// Level 1 holds blocks block+1 to block+63: rotate block+1's bit
		// to bit 0 and take the first one set.
		b := w.block + 1 + int64(bits.TrailingZeros64(bits.RotateLeft64(w.bits1, -int((w.block+1)&(wheelBlocks-1)))))
		start := Time(b) << blockBits
		if start > bound {
			return false
		}
		w.cascade(nodes, int(b&(wheelBlocks-1)))
		w.block, w.dueEnd = b, start
	}
}

// next0 returns the first occupied level-0 bucket at or after i, or -1.
func (w *wheel) next0(i int) int {
	k := i >> 6
	b := w.bits0[k] &^ (1<<(i&63) - 1)
	for b == 0 {
		if k++; k == len(w.bits0) {
			return -1
		}
		b = w.bits0[k]
	}
	return k<<6 | bits.TrailingZeros64(b)
}

// sort moves level-0 bucket i's live entries into the empty due, in
// descending (when, seq) order, and drops its stale ones.
func (w *wheel) sort(nodes []node, i int) {
	d := w.due
	for l := w.l0[i]; l != 0; {
		c := &w.links[l]
		if nodes[c.e.idx].gen == c.e.gen {
			d = append(d, c.e)
		} else {
			w.n--
			w.dead--
		}
		next := c.next
		w.release(l)
		l = next
	}
	w.l0[i] = 0
	w.bits0[i>>6] &^= 1 << (i & 63)
	if len(d) <= 12 {
		// A bucket holds a few entries, listed newest first: insertion
		// sort finds most of them in place.
		for j := 1; j < len(d); j++ {
			e, k := d[j], j
			for ; k > 0 && less(d[k-1], e); k-- {
				d[k] = d[k-1]
			}
			d[k] = e
		}
	} else {
		slices.SortFunc(d, func(a, b entry) int {
			switch {
			case less(b, a):
				return -1
			case less(a, b):
				return 1
			}
			return 0
		})
	}
	w.due = d
}

// cascade moves level-1 bucket j's live entries into their level-0
// buckets and drops its stale ones.
func (w *wheel) cascade(nodes []node, j int) {
	for l := w.l1[j]; l != 0; {
		c := &w.links[l]
		next := c.next
		if nodes[c.e.idx].gen == c.e.gen {
			i := int(c.e.when>>bucketBits) & (l0Buckets - 1)
			c.next, w.l0[i] = w.l0[i], l
			w.bits0[i>>6] |= 1 << (i & 63)
		} else {
			w.release(l)
			w.n--
			w.dead--
		}
		l = next
	}
	w.l1[j] = 0
	w.bits1 &^= 1 << j
}

// compact drops every stale entry the wheel holds, walking due and the
// occupied buckets only. Neither the order of due nor the firing order
// changes.
func (w *wheel) compact(nodes []node) {
	live := w.due[:0]
	for _, e := range w.due {
		if nodes[e.idx].gen == e.gen {
			live = append(live, e)
		}
	}
	w.due = live
	for k := range w.bits0 {
		for b := w.bits0[k]; b != 0; b &= b - 1 {
			i := k<<6 | bits.TrailingZeros64(b)
			if w.l0[i] = w.filter(nodes, w.l0[i]); w.l0[i] == 0 {
				w.bits0[k] &^= 1 << (i & 63)
			}
		}
	}
	for b := w.bits1; b != 0; b &= b - 1 {
		j := bits.TrailingZeros64(b)
		if w.l1[j] = w.filter(nodes, w.l1[j]); w.l1[j] == 0 {
			w.bits1 &^= 1 << j
		}
	}
	w.n -= w.dead
	w.dead = 0
}

// filter releases the stale cells of the list that starts at l and
// returns the head of what is left.
func (w *wheel) filter(nodes []node, l int32) int32 {
	var head int32
	tail := &head
	for l != 0 {
		c := &w.links[l]
		next := c.next
		if nodes[c.e.idx].gen == c.e.gen {
			*tail, tail = l, &c.next
		} else {
			w.release(l)
		}
		l = next
	}
	*tail = 0
	return head
}

// farHeap is the binary min-heap of the events due beyond the wheel's
// reach.
type farHeap struct {
	h []entry

	// dead counts the stopped entries h still carries. Canceled events
	// release their slot immediately but leave their 24-byte entry
	// behind until it surfaces. Stale entries that came to outnumber
	// live ones would deepen every sift, so settle compacts the heap
	// once they do.
	dead int
}

// settle compacts the heap when its stale entries outnumber its live
// ones, so sift depth tracks the live event count rather than the
// cancellation history, then discards stale entries off the top.
// Neither is visible to the simulation: the firing order is the
// (when, seq) total order, which any valid heap over the same live
// entries yields. It reports whether it did either.
func (q *farHeap) settle(nodes []node) bool {
	changed := false
	if q.dead > 64 && 2*q.dead > len(q.h) {
		live := q.h[:0]
		for _, e := range q.h {
			if nodes[e.idx].gen == e.gen {
				live = append(live, e)
			}
		}
		q.h = live
		for i := len(live)/2 - 1; i >= 0; i-- {
			q.siftDown(i)
		}
		q.dead = 0
		changed = true
	}
	for len(q.h) > 0 {
		if e := q.h[0]; nodes[e.idx].gen == e.gen {
			return changed
		}
		q.pop()
		q.dead--
		changed = true
	}
	return changed
}

// push inserts e, sifting it up.
func (q *farHeap) push(e entry) {
	q.h = append(q.h, e)
	h := q.h
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the minimum entry, sifting the displaced last
// entry down.
func (q *farHeap) pop() entry {
	h := q.h
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.h = h[:last]
	q.siftDown(0)
	return top
}

// siftDown restores the heap property below i. (when, seq) keys are
// unique, so no two entries ever tie.
func (q *farHeap) siftDown(i int) {
	h := q.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Ticker fires a callback at a fixed interval until stopped.
type Ticker struct {
	sim      *Sim
	interval time.Duration
	fn       func()
	tick     func() // cached self-callback: one closure per ticker, not per tick
	next     Event
	stopped  bool
}

// Every schedules fn to run every interval, first at now+interval.
// It panics if interval is not positive.
func (s *Sim) Every(interval time.Duration, fn func()) *Ticker {
	return s.EveryFrom(s.now+interval, interval, fn)
}

// EveryFrom schedules fn to run every interval, first at instant first.
// It panics if interval is not positive.
func (s *Sim) EveryFrom(first Time, interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("des: non-positive ticker interval")
	}
	t := &Ticker{sim: s, interval: interval, fn: fn}
	t.tick = t.doTick
	t.next = s.Schedule(first, t.tick)
	return t
}

func (t *Ticker) doTick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped the ticker
		t.next = t.sim.After(t.interval, t.tick)
	}
}

// Stop cancels the ticker. Stopping twice is a no-op.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.next.Stop()
}
