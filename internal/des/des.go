// Package des provides a deterministic discrete-event simulation kernel.
//
// All HPC-Whisk components (the Slurm emulator, the OpenWhisk emulation,
// the message bus, workload generators and load generators) are actors on
// a single virtual clock owned by a Sim. Events scheduled for the same
// instant execute in scheduling order, so a run is reproducible
// bit-for-bit given fixed inputs and seeds.
//
// The kernel is the hot path of every experiment (a 24-hour production
// run dispatches millions of events), so the queue is built from 4-ary
// min-heaps of value entries ordered by (instant, sequence): no
// container/heap interface boxing, no per-event heap allocation, and no
// index maintenance. Callback slots are pooled in a free list and
// recycled as events fire; Event handles are small generation-checked
// values, so Stop and Pending on a handle whose slot has been recycled
// for a later scheduling are detected and refused rather than
// corrupting the queue.
//
// The queue has three kinds of part: two heap tiers and any number of
// lanes. An event scheduled on a Lane waits in that lane, a FIFO of the
// events that share one constant delay; any other event due less than
// farAhead after it was scheduled goes to the near heap, and every
// other one to the far heap. A trace-driven run schedules thousands of
// idle-period boundaries hours ahead at set-up, while its request path
// keeps a few dozen events in flight; kept apart, those boundaries no
// longer deepen every sift of the request path. A lane needs no sift at
// all: events with one delay come due in the order they are scheduled.
// The per-request client timeout waits on one, so the hundreds of
// thousands a day armed and stopped again never enter a heap. Each
// dispatch fires the first of the two heap tops and the lane heads, so
// events still fire one at a time in the one (instant, sequence) order
// whichever queue holds them. Stopped events leave stale entries behind
// (Stop is index-free), and each tier and each lane is compacted on its
// own once its stale entries outnumber its live ones.
//
// The zero value of Sim is ready to use; its clock starts at instant 0.
package des

import (
	"fmt"
	"math"
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
// is released (fired or stopped), so a heap entry or handle created for
// an earlier scheduling can never act on a later one. (uint32 suffices:
// a false match needs one slot to cycle exactly 2^32 times while a
// stale reference is held; whole runs schedule orders of magnitude
// fewer events.)
//
// A slot holds either a plain callback (fn) or a typed-argument pair
// (fnA, arg) from ScheduleCall; exactly one of fn/fnA is non-nil while
// the slot is live. The typed form lets hot-path callers reuse one
// long-lived func(any) (typically a cached method value) instead of
// allocating a capturing closure per event.
//
// at stamps the instant the slot was filled (the clock at scheduling
// time): with the event's instant it names the tier the entry waits in,
// which Stop needs to credit that tier's stale count. lane names the
// lane it waits in instead, as an index into Sim.lanes plus one, and is
// 0 for a tier entry. (It fills the struct's padding: 48 bytes either
// way.)
type node struct {
	fn   func()
	fnA  func(any)
	arg  any
	at   Time
	gen  uint32
	lane int32
}

// entry is one queue element: 24 bytes (8+8+4+4), pointer-free, ordered
// by (when, seq) for the deterministic total order.
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
	if n.lane != 0 {
		s.lanes[n.lane-1].stopped(s.nodes)
	} else {
		s.tierOf(e.when, n.at).dead++
	}
	return true
}

// farAhead splits the heaps: an event due at least this long after it
// was scheduled waits in the far tier. It sits above the request path's
// hops and the 3 min SIGTERM grace, so those stay near where they are
// armed and stopped, and below pilot walltimes and trace boundaries,
// which wait far. (The client timeout waits on a lane.)
const farAhead = 5 * time.Minute

// tier is one 4-ary min-heap of the queue.
type tier struct {
	h []entry

	// dead counts the stopped entries h still carries. Canceled events
	// release their slot immediately but leave their 24-byte entry
	// behind until it surfaces. Stale entries that came to outnumber
	// live ones would deepen every sift, so settle compacts the tier
	// once they do.
	dead int
}

// tierOf reports the tier of an event due at when and scheduled at at.
func (s *Sim) tierOf(when, at Time) *tier {
	if when-at >= farAhead {
		return &s.far
	}
	return &s.near
}

// Sim is a discrete-event simulation: a virtual clock plus a queue of
// pending events. Sim is not safe for concurrent use; the simulation
// executes in a single goroutine by design (determinism is the point).
// Independent Sims are fully isolated, so replicas of an experiment can
// run concurrently on one Sim each (as internal/sweep does).
type Sim struct {
	now       Time
	near, far tier
	lanes     []*Lane
	nodes     []node
	free      []int32
	seq       uint64
	npending  int
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
	idx, n := s.acquire(at, 0)
	n.fn = fn
	return s.enqueue(at, idx, n)
}

// After queues fn to run d from now. A negative d panics.
func (s *Sim) After(d time.Duration, fn func()) Event {
	return s.Schedule(s.now+d, fn)
}

// ScheduleCall queues fn(arg) to run at instant at. It is Schedule for
// the hot path: fn is typically a long-lived func(any) (a method value
// cached once on the caller) and arg the per-event payload, so queueing
// an event allocates nothing — no closure is created and the (fn, arg)
// pair lives in the pooled slot. Events from ScheduleCall and Schedule
// share one total (instant, sequence) order.
func (s *Sim) ScheduleCall(at Time, fn func(any), arg any) Event {
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	idx, n := s.acquire(at, 0)
	n.fnA = fn
	n.arg = arg
	return s.enqueue(at, idx, n)
}

// AfterCall queues fn(arg) to run d from now. A negative d panics.
func (s *Sim) AfterCall(d time.Duration, fn func(any), arg any) Event {
	return s.ScheduleCall(s.now+d, fn, arg)
}

// acquire validates the instant and takes a free callback slot for an
// event on the given lane (0: a tier).
func (s *Sim) acquire(at Time, lane int32) (int32, *node) {
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
	n := &s.nodes[idx]
	n.at, n.lane = s.now, lane
	return idx, n
}

// enqueue queues the filled slot on its lane or tier and hands out the
// handle.
func (s *Sim) enqueue(at Time, idx int32, n *node) Event {
	e := entry{when: at, seq: s.seq, gen: n.gen, idx: idx}
	s.seq++
	if n.lane != 0 {
		s.lanes[n.lane-1].push(e)
	} else {
		s.tierOf(at, n.at).push(e)
	}
	s.npending++
	return Event{sim: s, when: at, gen: n.gen, idx: idx}
}

// Lane is a FIFO of the events that share one constant delay, from
// Sim.Lane. Events with one delay come due in the order they are
// scheduled, so a lane keeps them due-ordered without a heap:
// scheduling appends, and dispatch takes the head when it comes first.
// Its events keep their place in the Sim's one (instant, sequence)
// order; they only wait apart. A lane suits a delay that is armed often
// and nearly always stopped before it fires, like a request timeout.
type Lane struct {
	sim   *Sim
	delay time.Duration
	id    int32 // index in sim.lanes plus one, as node.lane records it

	// q[head:] holds the lane's entries in (when, seq) order; q[:head]
	// is room that entries taken off the head left behind.
	q    []entry
	head int

	// dead counts the stopped entries q[head:] still holds.
	dead int
}

// Lane returns the Sim's lane for delay d, created on first use: every
// caller of one delay shares one lane.
func (s *Sim) Lane(d time.Duration) *Lane {
	for _, l := range s.lanes {
		if l.delay == d {
			return l
		}
	}
	l := &Lane{sim: s, delay: d, id: int32(len(s.lanes) + 1)}
	s.lanes = append(s.lanes, l)
	return l
}

// AfterCall queues fn(arg) on the lane, to run its delay from now: the
// lane's Sim.AfterCall. A negative delay panics.
func (l *Lane) AfterCall(fn func(any), arg any) Event {
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	s := l.sim
	at := s.now + l.delay
	if k := len(l.q); k > l.head && at < l.q[k-1].when {
		// The clock went back: RunUntil or RunBefore set it to their end
		// after a re-entrant Step fired past it. The lane would fall out
		// of order; a heap keeps the event in its place.
		return s.ScheduleCall(at, fn, arg)
	}
	idx, n := s.acquire(at, l.id)
	n.fnA = fn
	n.arg = arg
	return s.enqueue(at, idx, n)
}

// push appends e. Before the buffer would grow it takes back the room
// in front of the head once that is at least half the buffer, so a lane
// in steady state allocates nothing.
func (l *Lane) push(e entry) {
	if len(l.q) == cap(l.q) && l.head > 0 && 2*l.head >= len(l.q) {
		n := copy(l.q, l.q[l.head:])
		l.q, l.head = l.q[:n], 0
	}
	l.q = append(l.q, e)
}

// pop removes and returns the head entry.
func (l *Lane) pop() entry {
	e := l.q[l.head]
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return e
}

// settle discards stale entries off the head. It reports whether it
// discarded any.
func (l *Lane) settle(nodes []node) bool {
	dropped := false
	for l.head < len(l.q) {
		if e := l.q[l.head]; nodes[e.idx].gen == e.gen {
			break
		}
		l.pop()
		l.dead--
		dropped = true
	}
	return dropped
}

// stopped counts one more stopped entry, and compacts the lane in place,
// in FIFO order, once more than 64 of its entries are stale and they
// outnumber the live ones: the tiers' rule. Stale entries leave at the
// head only once their instant comes, so without it a lane whose events
// are nearly all stopped would hold every one scheduled in the last
// delay.
func (l *Lane) stopped(nodes []node) {
	l.dead++
	if l.dead > 64 && 2*l.dead > len(l.q)-l.head {
		live := l.q[:0]
		for _, e := range l.q[l.head:] {
			if nodes[e.idx].gen == e.gen {
				live = append(live, e)
			}
		}
		l.q, l.head, l.dead = live, 0, 0
	}
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

// RunBefore fires every event scheduled strictly before end, then
// advances the clock to end. It is the half-open window primitive of
// the conservative parallel coordinator (internal/pdes): a plane can be
// advanced through [now, end) while events at exactly end stay pending,
// so a later RunUntil(end) — or events injected at exactly end — still
// fire in (when, seq) order. Equivalent to RunUntil(end) followed by
// re-running the events at end, except those events never fire here.
func (s *Sim) RunBefore(end Time) {
	if end < s.now {
		panic(fmt.Sprintf("des: run before %v behind now %v", end, s.now))
	}
	s.dispatch(end-1, false) // instants are whole nanoseconds
	s.now = end
}

// maxTime is the last instant; dispatching up to it runs unbounded.
const maxTime = Time(math.MaxInt64)

// dispatch is the one event loop behind Step, Run, RunUntil and
// RunBefore: it fires events one at a time in (when, seq) order while
// the earliest pending event is due at or before last — only the first
// one if once is set. Reports whether an event fired.
func (s *Sim) dispatch(last Time, once bool) bool {
	fired := false
	for !fired || !once {
		var e entry
		switch q, l := s.next(); {
		case l != nil && l.q[l.head].when <= last:
			e = l.pop()
		case q != nil && q.h[0].when <= last:
			e = q.pop()
		default:
			return fired
		}
		s.now = e.when
		s.fire(e)
		fired = true
	}
	return fired
}

// next returns the queue (a tier or a lane) whose head is the earliest
// live entry, or neither when no live entry is queued: the one
// top-of-queue helper behind every entry point. A queue is settled
// before its head is trusted: the near tier on every call, the far tier
// and the lanes only when their head comes first. A stale far top or
// lane head behind the live near top cannot matter, and checking it
// would touch a callback slot the request path never reads.
func (s *Sim) next() (*tier, *Lane) {
	s.near.settle(s.nodes)
	for {
		q, l := s.first()
		if l != nil && l.settle(s.nodes) || q == &s.far && q.settle(s.nodes) {
			continue // it discarded its head or compacted: look again
		}
		return q, l
	}
}

// first returns the queue whose head entry comes first in (when, seq)
// order, or neither when all are empty. Entries due at the same instant
// are ordered by sequence whichever queues hold them.
func (s *Sim) first() (*tier, *Lane) {
	var q *tier
	top := none
	if len(s.near.h) > 0 {
		q, top = &s.near, s.near.h[0]
	}
	if len(s.far.h) > 0 && less(s.far.h[0], top) {
		q, top = &s.far, s.far.h[0]
	}
	var lane *Lane
	for _, l := range s.lanes {
		if l.head < len(l.q) && less(l.q[l.head], top) {
			lane, top = l, l.q[l.head]
		}
	}
	if lane != nil {
		return nil, lane
	}
	return q, nil
}

// none orders after every entry a Sim can queue (no sequence number
// reaches MaxUint64): the head of an empty queue.
var none = entry{when: maxTime, seq: math.MaxUint64}

// NextAt reports the instant of the earliest live pending event — the
// shard-horizon query of the parallel coordinator. ok is false when no
// live event is pending. The clock does not move and nothing fires.
func (s *Sim) NextAt() (at Time, ok bool) {
	switch q, l := s.next(); {
	case l != nil:
		return l.q[l.head].when, true
	case q != nil:
		return q.h[0].when, true
	}
	return 0, false
}

// settle compacts the tier when its stale entries outnumber its live
// ones, so sift depth tracks the live event count rather than the
// cancellation history, then discards stale entries off the top.
// Neither is visible to the simulation: the firing order is the
// (when, seq) total order, which any valid heap over the same live
// entries yields. It reports whether it did either.
func (q *tier) settle(nodes []node) bool {
	changed := false
	if q.dead > 64 && 2*q.dead > len(q.h) {
		live := q.h[:0]
		for _, e := range q.h {
			if nodes[e.idx].gen == e.gen {
				live = append(live, e)
			}
		}
		q.h = live
		for i := (len(live) - 2) / 4; i >= 0 && len(live) > 1; i-- {
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

// less orders entries by (when, seq): the deterministic total order.
func less(a, b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// push inserts e into the 4-ary heap, sifting up with hole moves (each
// level is one entry copy, not a swap).
func (q *tier) push(e entry) {
	h := append(q.h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.h = h
}

// pop removes and returns the minimum entry, sifting the displaced last
// entry down. With 4 children per level the heap is half the depth of a
// binary heap, trading slightly wider min-of-children scans (which stay
// in one or two cache lines: entries are 24 bytes) for fewer levels.
func (q *tier) pop() entry {
	h := q.h
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.h = h[:last]
	if last > 1 {
		q.siftDown(0)
	}
	return top
}

// siftDown restores the heap property below i with hole moves (each
// level is one entry copy, not a swap). Full four-child fan-outs find
// their minimum with a pairwise tournament — two independent compare
// chains instead of one serial scan. (when, seq) keys are unique, so
// tie-break order between the variants can never matter.
func (q *tier) siftDown(i int) {
	h := q.h
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			if less(h[c+1], h[m]) {
				m = c + 1
			}
			m2 := c + 2
			if less(h[c+3], h[m2]) {
				m2 = c + 3
			}
			if less(h[m2], h[m]) {
				m = m2
			}
		} else {
			for j := c + 1; j < n; j++ {
				if less(h[j], h[m]) {
					m = j
				}
			}
		}
		if !less(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
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
