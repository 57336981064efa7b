package des

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// refSim is the pre-optimization kernel (container/heap binary heap,
// one *refEvent allocation per scheduling, eager removal on Stop),
// kept verbatim as the ordering oracle: the pooled kernel must
// fire the same events at the same instants in the same order.

type refEvent struct {
	sim   *refSim
	when  Time
	seq   uint64
	fn    func()
	index int
}

func (e *refEvent) Stop() bool {
	if e == nil || e.index < 0 {
		return false
	}
	heap.Remove(&e.sim.events, e.index)
	e.index = -1
	e.fn = nil
	return true
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

type refSim struct {
	now    Time
	events refHeap
	seq    uint64
}

func (s *refSim) Schedule(at Time, fn func()) *refEvent {
	s.seq++
	return s.scheduleSeq(at, s.seq-1, fn)
}

// scheduleSeq queues fn at instant at with sequence number seq: a fresh
// one from Schedule, or one a reservation set aside.
func (s *refSim) scheduleSeq(at Time, seq uint64, fn func()) *refEvent {
	e := &refEvent{sim: s, when: at, seq: seq, fn: fn}
	heap.Push(&s.events, e)
	return e
}

func (s *refSim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*refEvent)
	s.now = e.when
	fn := e.fn
	e.fn = nil
	fn()
	return true
}

func (s *refSim) RunUntil(end Time) {
	for len(s.events) > 0 && s.events[0].when <= end {
		s.Step()
	}
	s.now = end
}

// kernel abstracts the two implementations so one scripted op sequence
// can drive both. reserve takes n places and returns the function that
// schedules into the i-th of them. sim is the pooled kernel's Sim (nil
// for the reference), read only to check which code paths a script
// reached.
type kernel struct {
	now      func() Time
	schedule func(at Time, fn func()) (stop func() bool)
	after    func(i int, fn func()) (stop func() bool)
	reserve  func(n int) (into intoPlace)
	step     func() bool
	runUntil func(end Time)
	drain    func()
	sim      *Sim
}

// intoPlace schedules fn at instant at into the i-th place of one
// reservation.
type intoPlace func(i int, at Time, fn func()) (stop func() bool)

// afterDelays are the scripts' two constant delays, armed with AfterCall
// as the request path arms its hops and its client timeout: entries a
// second or a minute ahead, many of them due at one instant and stopped
// again.
var afterDelays = [2]time.Duration{time.Second, time.Minute}

func pooledKernel() kernel {
	s := New()
	return kernel{
		now: s.Now,
		schedule: func(at Time, fn func()) func() bool {
			e := s.Schedule(at, fn)
			return e.Stop
		},
		after: func(i int, fn func()) func() bool {
			e := s.AfterCall(afterDelays[i], func(any) { fn() }, nil)
			return e.Stop
		},
		reserve: func(n int) intoPlace {
			ps := s.Reserve(n)
			return func(i int, at Time, fn func()) func() bool {
				e := s.ScheduleCallIn(ps, i, at, func(any) { fn() }, nil)
				return e.Stop
			}
		},
		step:     s.Step,
		runUntil: s.RunUntil,
		drain:    s.Run,
		sim:      s,
	}
}

// referenceKernel schedules a constant-delay op as a plain event at now
// plus the delay, and reserves places by skipping their sequence numbers.
func referenceKernel() kernel {
	s := &refSim{}
	return kernel{
		now: func() Time { return s.now },
		schedule: func(at Time, fn func()) func() bool {
			e := s.Schedule(at, fn)
			return e.Stop
		},
		after: func(i int, fn func()) func() bool {
			e := s.Schedule(s.now+afterDelays[i], fn)
			return e.Stop
		},
		reserve: func(n int) intoPlace {
			first := s.seq
			s.seq += uint64(n)
			return func(i int, at Time, fn func()) func() bool {
				return s.scheduleSeq(at, first+uint64(i), fn).Stop
			}
		},
		step: s.Step,
		runUntil: func(end Time) {
			s.RunUntil(end)
		},
		drain: func() {
			for s.Step() {
			}
		},
	}
}

// harness replays one op sequence on a kernel and renders every
// observable — each firing as "id@instant", every Stop result, every
// Step result, the clock after every RunUntil — into one log. Callbacks
// with id ≡ 0 (mod 7) schedule a child event from inside the dispatch,
// exercising reentrant scheduling at (and after) the current instant;
// with far set the children reach every offset class of at, so far
// callbacks schedule too, into the wheel and the far heap, and one in
// seven of them (id ≡ 0 mod 49) schedules at a constant delay instead.
// With far set, a spawning callback with id ≡ 7 (mod 14) puts its child
// into the oldest unused reserved place, if there is one. Callbacks with
// id ≡ 4 (mod 11) stop a later-scheduled sibling due at their own
// instant.
type harness struct {
	k     kernel
	far   bool
	log   []byte
	stops []func() bool
	whens []Time

	// places holds the reserved places no event has taken yet, oldest
	// first.
	places []place

	// farDue and wheelDue count ops after which the pooled kernel's far
	// heap or wheel was due for compaction: more than 64 stale entries,
	// outnumbering its live ones.
	farDue, wheelDue int

	// miscount names the first op after which a count of the pooled
	// kernel's far heap or wheel differed from the entries it holds, or
	// a wheel entry sat out of place ("" while all is exact).
	miscount string
}

// schedule queues the next event at instant at.
func (d *harness) schedule(at Time) {
	d.whens = append(d.whens, at)
	d.stops = append(d.stops, d.k.schedule(at, d.callback()))
}

// scheduleAfter queues the next event afterDelays[i] from now.
func (d *harness) scheduleAfter(i int) {
	d.whens = append(d.whens, d.k.now()+afterDelays[i])
	d.stops = append(d.stops, d.k.after(i, d.callback()))
}

// place is place i of one reservation.
type place struct {
	into intoPlace
	i    int
}

// reserve takes n places.
func (d *harness) reserve(n int) {
	into := d.k.reserve(n)
	for i := 0; i < n; i++ {
		d.places = append(d.places, place{into, i})
	}
}

// scheduleIn queues the next event at instant at into the j-th oldest
// unused place.
func (d *harness) scheduleIn(j int, at Time) {
	pl := d.places[j]
	d.places = slices.Delete(d.places, j, j+1)
	d.whens = append(d.whens, at)
	d.stops = append(d.stops, pl.into(pl.i, at, d.callback()))
}

// callback returns the callback of the event about to be queued.
func (d *harness) callback() func() {
	id := len(d.stops)
	spawn := id%7 == 0
	return func() {
		d.log = append(d.log, fmt.Sprintf("%d@%d\n", id, d.k.now())...)
		if spawn {
			switch {
			case !d.far:
				d.schedule(d.k.now() + Time(1+id%911)*Time(time.Millisecond))
			case id%14 == 7 && len(d.places) > 0:
				d.scheduleIn(0, d.at(id/7, id))
			case id%49 == 0:
				d.scheduleAfter(id / 49 % 2)
			default:
				d.schedule(d.at(id/7, id))
			}
		}
		// Re-entrant dispatch from inside a callback: a sprinkle of
		// events single-step the kernel or drain their own instant.
		if id%97 == 13 {
			d.log = append(d.log, fmt.Sprintf("rstep=%v\n", d.k.step())...)
		}
		if id%101 == 17 {
			d.k.runUntil(d.k.now())
		}
		if id%11 == 4 {
			for j := len(d.whens) - 1; j > id && j >= len(d.whens)-64; j-- {
				if d.whens[j] == d.k.now() {
					d.log = append(d.log, fmt.Sprintf("sib%d=%v\n", j, d.stops[j]())...)
					break
				}
			}
		}
	}
}

// stop stops n handles from the j-th on (often already fired: stale).
func (d *harness) stop(j, n int) {
	for ; n > 0 && j < len(d.stops); j, n = j+1, n-1 {
		d.log = append(d.log, fmt.Sprintf("stop%d=%v\n", j, d.stops[j]())...)
	}
}

func (d *harness) step() {
	d.log = append(d.log, fmt.Sprintf("step=%v\n", d.k.step())...)
}

func (d *harness) runUntil(end Time) {
	d.k.runUntil(end)
	d.log = append(d.log, fmt.Sprintf("tick->%d\n", d.k.now())...)
}

// at maps an offset class (mod 8) and a parameter p ≥ 0 to an instant at
// or after now that reaches both parts of the queue and the wheel's
// edges: milliseconds, seconds, minutes and hours ahead; 1 ns either
// side of, or on, one of the next 8 level-0 bucket edges (class 4), one
// of the next 64 block edges (class 5), or the first instant past the
// wheel's reach from now's block (class 6); and the instant of an
// earlier scheduling still ahead, which makes same-instant ties, across
// the parts when that scheduling went to the far heap and the clock has
// since come within reach of it, or exactly 64 blocks after one, which
// shares its level-1 bucket.
func (d *harness) at(class, p int) Time {
	now := d.k.now()
	ms := Time(time.Millisecond)
	nudge := Time(p%3 - 1)
	switch class % 8 {
	case 0:
		return now + Time(p%1_000)*ms
	case 1:
		return now + Time(p%10_000)*ms
	case 2:
		return now + Time(1+p%59)*Time(time.Minute) + Time(p%1_000)*ms
	case 3:
		return now + Time(1+p%24)*Time(time.Hour) + Time(p%60_000)*ms
	case 4:
		return (now>>bucketBits+Time(1+p/3%8))<<bucketBits + nudge
	case 5:
		return (now>>blockBits+Time(1+p/3%wheelBlocks))<<blockBits + nudge
	case 6:
		return (now>>blockBits+wheelBlocks)<<blockBits + nudge
	}
	if n := len(d.whens); n > 0 {
		w := d.whens[n-1-p%min(n, 64)] // a recent scheduling...
		if p%2 == 1 {
			w = d.whens[p%n] // ...or any
		}
		if p%3 == 2 {
			w += wheelBlocks << blockBits
		}
		if w >= now {
			return w
		}
	}
	return now
}

// runScript drives k through ops pseudo-random schedule / stop / tick /
// step operations (from its own identically-seeded rng), every offset
// under 10 s, and returns the harness's log.
func runScript(k kernel, ops int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	d := &harness{k: k}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 6: // schedule at a random future offset
			d.schedule(k.now() + Time(rng.Intn(10_000))*Time(time.Millisecond))
		case r < 8: // stop a random handle
			if len(d.stops) == 0 {
				continue
			}
			d.stop(rng.Intn(len(d.stops)), 1)
		case r == 8: // tick: advance the clock by a window
			d.runUntil(k.now() + Time(rng.Intn(5_000))*Time(time.Millisecond))
		default: // fire a single event
			d.step()
		}
	}
	k.drain()
	return string(d.log)
}

// Op kinds of runOps' byte encoding.
const (
	opSchedule = iota
	opStop
	opStep
	opRunUntil
)

// The first schedule arguments that select a constant delay, a
// reservation and a reserved place.
const (
	afterArg   = 8
	reserveArg = 16
	placeArg   = 24
)

// runOps decodes data into ops, three bytes each — kind (low 2 bits)
// and argument (high 6 bits), then a 16-bit parameter p — replays them
// on k with far-reaching children, drains k and returns the harness. A
// schedule with an argument of afterArg to afterArg+7 goes
// afterDelays[argument%2] from now; one of reserveArg to reserveArg+7
// reserves 1<<(argument%8) places; one of placeArg to placeArg+7 goes to
// at(argument, p) into the (p mod count)-th oldest unused place, if any;
// any other schedule, and a RunUntil, goes to at(argument, p). A stop
// stops up to 1<<(argument%8) handles from the (p mod count)-th newest
// on.
func runOps(k kernel, data []byte) *harness {
	d := &harness{k: k, far: true}
	for op := 0; len(data) >= 3; op, data = op+1, data[3:] {
		kind, arg, p := int(data[0]&3), int(data[0]>>2), int(data[1])<<8|int(data[2])
		switch kind {
		case opSchedule:
			switch {
			case arg >= afterArg && arg < afterArg+8:
				d.scheduleAfter(arg % 2)
			case arg >= reserveArg && arg < reserveArg+8:
				d.reserve(1 << (arg % 8))
			case arg >= placeArg && arg < placeArg+8:
				if n := len(d.places); n > 0 {
					d.scheduleIn(p%n, d.at(arg, p))
				}
			default:
				d.schedule(d.at(arg, p))
			}
		case opStop:
			if n := len(d.stops); n > 0 {
				d.stop(n-1-p%n, 1<<(arg%8))
			}
		case opStep:
			d.step()
		case opRunUntil:
			d.runUntil(d.at(arg, p))
		}
		if s := k.sim; s != nil {
			if s.far.dead > 64 && 2*s.far.dead > len(s.far.h) {
				d.farDue++
			}
			if s.wheel.dead > 64 && 2*s.wheel.dead > s.wheel.n {
				d.wheelDue++
			}
			if m := miscount(s); m != "" && d.miscount == "" {
				d.miscount = fmt.Sprintf("op %d: %s", op, m)
			}
		}
	}
	k.drain()
	return d
}

// miscount reports the first count that differs from what it counts —
// the far heap's stopped entries, the wheel's entries and stopped ones —
// or the first wheel entry out of place: a bucket marked occupied with
// an empty list, an entry in a bucket that does not cover its instant,
// or due out of order or holding an entry not due before dueEnd. It
// returns "" when all is exact.
func miscount(s *Sim) string {
	if n := stale(s, s.far.h); n != s.far.dead {
		return fmt.Sprintf("far dead=%d stale=%d", s.far.dead, n)
	}
	w := &s.wheel
	for k := 1; k < len(w.due); k++ {
		if !less(w.due[k], w.due[k-1]) {
			return fmt.Sprintf("due out of order at %d", k)
		}
	}
	if len(w.due) > 0 && w.due[0].when >= w.dueEnd {
		return fmt.Sprintf("due holds %v, not before dueEnd %v", w.due[0].when, w.dueEnd)
	}
	// Walk the buckets the bitmaps mark. A list left behind an unmarked
	// bucket goes uncounted, so the totals below catch it.
	n, dead := len(w.due), stale(s, w.due)
	for k, word := range w.bits0 {
		for ; word != 0; word &= word - 1 {
			i := k<<6 | bits.TrailingZeros64(word)
			if w.l0[i] == 0 {
				return fmt.Sprintf("level-0 bucket %d marked but empty", i)
			}
			for l := w.l0[i]; l != 0; l = w.links[l].next {
				e := w.links[l].e
				if int64(e.when>>blockBits) != w.block || int(e.when>>bucketBits)&(l0Buckets-1) != i || e.when < w.dueEnd {
					return fmt.Sprintf("level-0 bucket %d holds %v (block %d, dueEnd %v)", i, e.when, w.block, w.dueEnd)
				}
				n++
				if s.nodes[e.idx].gen != e.gen {
					dead++
				}
			}
		}
	}
	for word := w.bits1; word != 0; word &= word - 1 {
		j := bits.TrailingZeros64(word)
		if w.l1[j] == 0 {
			return fmt.Sprintf("level-1 bucket %d marked but empty", j)
		}
		for l := w.l1[j]; l != 0; l = w.links[l].next {
			e := w.links[l].e
			if b := int64(e.when >> blockBits); b-w.block < 1 || b-w.block >= wheelBlocks || int(b)&(wheelBlocks-1) != j {
				return fmt.Sprintf("level-1 bucket %d holds %v (block %d)", j, e.when, w.block)
			}
			n++
			if s.nodes[e.idx].gen != e.gen {
				dead++
			}
		}
	}
	if n != w.n || dead != w.dead {
		return fmt.Sprintf("wheel n=%d dead=%d, holds %d with %d stale", w.n, w.dead, n, dead)
	}
	return ""
}

// stale counts the entries of q whose slot was released.
func stale(s *Sim, q []entry) int {
	n := 0
	for _, e := range q {
		if s.nodes[e.idx].gen != e.gen {
			n++
		}
	}
	return n
}

// farScript draws n ops for runOps the way a trace-driven day mixes
// them: schedules over every offset class, near ones the most common,
// and at both constant delays; single stops, and bulk stops of the 128
// handles 129 to 256 schedulings back, whose near events have mostly
// fired by then, so the stops strand far entries faster than they
// surface; single steps; and RunUntil windows of mostly milliseconds to
// seconds, a few minutes and rare hour-long jumps. With places set, one
// op in twenty reserves 1, 2, 4 or 8 places and one in five schedules
// into a reserved place over the same offset classes, as a trace's
// streamed boundaries do.
func farScript(seed int64, n int, places bool) []byte {
	const (
		scheduleClasses = "0000011111223333334567"
		windowClasses   = "000000000011111111122456"
	)
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		kind, arg, p := opSchedule, int(scheduleClasses[rng.Intn(len(scheduleClasses))]-'0'), rng.Intn(1<<16)
		switch r := rng.Intn(40); {
		case r < 8:
			kind, arg = opStop, 0
		case r < 10:
			kind, arg, p = opStop, 7, 255
		case r < 14:
			kind = opStep
		case r < 18:
			kind, arg = opRunUntil, int(windowClasses[rng.Intn(len(windowClasses))]-'0')
			if rng.Intn(50) == 0 {
				arg = 3
			}
		case r < 22:
			arg = afterArg + rng.Intn(2)
		}
		if places {
			switch r := rng.Intn(20); {
			case r == 0:
				kind, arg = opSchedule, reserveArg+rng.Intn(4)
			case r < 5:
				kind, arg = opSchedule, placeArg+int(scheduleClasses[rng.Intn(len(scheduleClasses))]-'0')
			}
		}
		data = append(data, byte(kind|arg<<2), byte(p>>8), byte(p))
	}
	return data
}

// requestScript draws about n ops for runOps in the request path's
// shape: client timeouts at the 60 s delay, nine in ten stopped again
// by the next op, hops milliseconds ahead, steps, and RunUntil windows
// under a second. A stopped timeout's bucket comes due only a minute of
// clock later, so stale entries pile up in the wheel until it compacts.
func requestScript(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 0, 6*n)
	for i := 0; i < n; i++ {
		kind, arg, p := opSchedule, 0, rng.Intn(1<<16)
		switch r := rng.Intn(20); {
		case r < 8:
			data = append(data, opSchedule|(afterArg+1)<<2, 0, 0)
			if rng.Intn(10) == 0 {
				continue
			}
			kind, p = opStop, 0
		case r < 11:
			kind = opStep
		case r < 14:
			kind = opRunUntil
		}
		data = append(data, byte(kind|arg<<2), byte(p>>8), byte(p))
	}
	return data
}

// TestPropertyPooledHeapMatchesReference requires the pooled kernel,
// with its timing wheel and its far heap, and the container/heap oracle
// to produce byte-identical logs over 100k random operations: near-only
// scripts (every offset under 10 s) and far-reaching ones, whose
// offsets span both parts, the wheel's bucket and block edges and the
// end of its reach, whose constant-delay schedules wait 1 s or 60 s,
// whose bulk stops compact the wheel and the far heap, whose RunUntil
// windows jump hours of empty clock and whose ties put far entries and
// later-scheduled wheel entries on the same instant; and far-reaching
// scripts that also reserve places and queue into them, so a wheel
// entry can tie with a far one and carry the smaller sequence number.
// After every op of the far-reaching scripts each part's counts must
// equal the entries it holds, and every wheel entry must sit where it
// belongs.
func TestPropertyPooledHeapMatchesReference(t *testing.T) {
	const ops = 100_000
	for _, seed := range []int64{1, 2, 3} {
		sameLog(t, fmt.Sprintf("near seed %d", seed),
			runScript(pooledKernel(), ops, seed), runScript(referenceKernel(), ops, seed))
	}
	for _, places := range []bool{false, true} {
		for _, seed := range []int64{1, 2, 3} {
			name := fmt.Sprintf("far seed %d", seed)
			if places {
				name = fmt.Sprintf("places seed %d", seed)
			}
			data := farScript(seed, ops, places)
			got := runOps(pooledKernel(), data)
			sameLog(t, name, string(got.log), string(runOps(referenceKernel(), data).log))
			if got.farDue == 0 {
				t.Errorf("%s: the far heap was never due for compaction", name)
			}
			if got.miscount != "" {
				t.Errorf("%s: count or placement drifted after %s", name, got.miscount)
			}
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		data := requestScript(seed, ops)
		got := runOps(pooledKernel(), data)
		sameLog(t, fmt.Sprintf("request seed %d", seed), string(got.log), string(runOps(referenceKernel(), data).log))
		if got.wheelDue == 0 {
			t.Errorf("request seed %d: the wheel was never due for compaction", seed)
		}
		if got.miscount != "" {
			t.Errorf("request seed %d: count or placement drifted after %s", seed, got.miscount)
		}
	}
}

// FuzzKernelMatchesReference decodes arbitrary bytes into schedule
// (at an instant, at a constant delay or into a reserved place),
// reserve, stop, step and RunUntil ops (runOps) and requires identical
// logs from the pooled kernel and the container/heap oracle, exact
// counts and every wheel entry in its place after every op. Its seeds
// reach the wheel's boundaries: bucket and block edges, the end of its
// reach, a block cascaded with stopped entries, and compaction; and
// reserved places at the current instant, in the head array, across a
// cascade and tied with a far entry.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		opSchedule | 6<<2, 0, 1, // the first instant past the reach: far
		opSchedule | 6<<2, 0, 0, // 1 ns before it: level 1, the last block
		opSchedule | 5<<2, 0, 1, // the next block edge: level 1
		opSchedule | 4<<2, 0, 0, // 1 ns before the next bucket edge: level 0
		opSchedule | 4<<2, 0, 2, // 1 ns after it: the bucket after
		opRunUntil | 5<<2, 0, 1, // to the block edge: cascades its block
		opSchedule | 7<<2, 0, 0, // tie with the newest scheduling still ahead
		opStep, 0, 0,
		opStop | 1<<2, 0, 1,
	})
	f.Add([]byte{
		opSchedule | (afterArg+1)<<2, 0, 0, // 60 s ahead: level 1
		opRunUntil | 1<<2, 0, 10, // 10 ms later
		opSchedule | 7<<2, 0, 0, // tie with it
		opStop, 0, 1, // stop the 60 s one
		opSchedule | afterArg<<2, 0, 0, // 1 s ahead...
		opSchedule | 1<<2, 0x03, 0xe8, // ...tied with one 1,000 ms ahead
		opStop, 0, 0, // stop the latter
		opRunUntil | 2<<2, 0, 0, // a minute on: cascades and fires the rest
	})
	// 100 events at the 60 s delay, all due at one instant, then the
	// oldest 65 of them stopped: the next look at the queue compacts the
	// wheel. More follow at that delay before the drain.
	var compact []byte
	for i := 0; i < 100; i++ {
		compact = append(compact, opSchedule|(afterArg+1)<<2, 0, 0)
	}
	compact = append(compact,
		opStop|6<<2, 0, 99, // 64 from the oldest on
		opStop, 0, 35, // the 65th oldest: compaction is due
		opRunUntil|1<<2, 0, 10,
		opSchedule|(afterArg+1)<<2, 0, 0,
		opStop|7<<2, 0, 0, // the newest, and no more
		opSchedule|(afterArg+1)<<2, 0, 0,
	)
	f.Add(compact)
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(farScript(seed, 400, false))
		f.Add(farScript(seed, 400, true))
	}
	// Eight events 9.000 to 9.007 s ahead, in block 2 at level 1, three
	// of them stopped: running to 9.004 s cascades the block, dropping
	// the stopped entries, and sorts its buckets.
	var cascade []byte
	for p := 9000; p < 9008; p++ {
		cascade = append(cascade, opSchedule|1<<2, byte(p>>8), byte(p))
	}
	cascade = append(cascade,
		opStop|1<<2, 0, 1, // the second and first newest
		opStop, 0, 5, // the sixth newest
		opRunUntil|1<<2, 0x23, 0x2c, // 9.004 s ahead
		opStep, 0, 0,
	)
	f.Add(cascade)
	// Stale entries in every part of the wheel at once: 30 events 5 ms
	// ahead (one level-0 bucket), 40 three seconds ahead (another) and 40
	// at the 60 s delay (level 1); a step sorts the first bucket into the
	// head array, and its callback schedules a zero-delay child into it. Then
	// 72 stops, the oldest first: compaction is due and runs at the next
	// look at the queue, walking due and every occupied bucket.
	var spread []byte
	for i := 0; i < 30; i++ {
		spread = append(spread, opSchedule, 0, 5)
	}
	for i := 0; i < 40; i++ {
		spread = append(spread, opSchedule|1<<2, 0x0b, 0xb8)
	}
	for i := 0; i < 40; i++ {
		spread = append(spread, opSchedule|(afterArg+1)<<2, 0, 0)
	}
	spread = append(spread,
		opStep, 0, 0,
		opStop|6<<2, 0, 110, // 64 from the oldest on
		opStop|3<<2, 0, 20, // 8 from the 21st newest on
		opRunUntil|1<<2, 0x0b, 0xb8, // 3 s ahead
	)
	f.Add(spread)
	// Reserved places. A place taken before an event at the current
	// instant was scheduled fires ahead of it, though queued after it.
	f.Add([]byte{
		opSchedule | reserveArg<<2, 0, 0, // one place
		opRunUntil | 1<<2, 0x03, 0xe8, // 1 s on
		opSchedule, 0, 0, // an event at the current instant
		opSchedule | placeArg<<2, 0, 0, // into the place, at the same instant: it fires next
		opStep, 0, 0,
		opStep, 0, 0,
	})
	// A place in due: a step sorts a bucket of two events 5 ms ahead into
	// the head array and fires the first; the place, queued at that
	// instant, goes into the array ahead of the second.
	f.Add([]byte{
		opSchedule | (reserveArg+1)<<2, 0, 0, // two places
		opSchedule, 0, 5,
		opSchedule, 0, 5,
		opStep, 0, 0,
		opSchedule | placeArg<<2, 0, 0, // the older place, at the current instant
		opSchedule | placeArg<<2, 0, 1, // the newer one, 1 ms on: a later bucket
		opStep, 0, 0,
	})
	// Places across a cascade: four events 9.000 to 9.003 s ahead, in
	// block 2 at level 1, and two places tied with the middle two; running
	// to 9.002 s cascades the block and sorts each place ahead of its tie.
	var placesCascade = []byte{opSchedule | (reserveArg+1)<<2, 0, 0}
	for p := 9000; p < 9004; p++ {
		placesCascade = append(placesCascade, opSchedule|1<<2, byte(p>>8), byte(p))
	}
	placesCascade = append(placesCascade,
		opSchedule|(placeArg+1)<<2, 0x23, 0x2a, // 9.002 s, the older place
		opSchedule|(placeArg+1)<<2, 0x23, 0x29, // 9.001 s, the newer one
		opRunUntil|1<<2, 0x23, 0x2a,
		opStep, 0, 0,
	)
	f.Add(placesCascade)
	// A wheel entry tied with a far entry at one instant, with the smaller
	// sequence number: the far one goes past the wheel's reach; a block on,
	// the place, taken before it, joins it at its instant, now within reach.
	f.Add([]byte{
		opSchedule | reserveArg<<2, 0, 0, // one place
		opSchedule | 6<<2, 0, 1, // the first instant past the reach: far
		opRunUntil | 5<<2, 0, 1, // to the next block edge
		opSchedule | (placeArg+7)<<2, 0, 0, // into the place, tied with it: the wheel
		opStep, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		got := runOps(pooledKernel(), data)
		sameLog(t, "fuzz", string(got.log), string(runOps(referenceKernel(), data).log))
		if got.miscount != "" {
			t.Fatalf("count or placement drifted after %s", got.miscount)
		}
	})
}

// sameLog fails t at the first byte where the two logs diverge.
func sameLog(t *testing.T, name, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	t.Fatalf("%s: logs diverge at byte %d:\npooled    ...%q\nreference ...%q",
		name, i, clip(got, lo), clip(want, lo))
}

func clip(s string, lo int) string {
	hi := lo + 120
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestStopOnRecycledSlot covers the pooling edge case: after an event
// fires, its slot is recycled for the next scheduling, and the stale
// handle's Stop must refuse (generation mismatch) rather than cancel
// the unrelated new event.
func TestStopOnRecycledSlot(t *testing.T) {
	s := New()
	a := s.Schedule(time.Second, func() {})
	s.Run() // a fires; its slot returns to the free list

	fired := false
	b := s.Schedule(2*time.Second, func() { fired = true })
	if !b.Pending() {
		t.Fatal("b should be pending")
	}
	if a.Pending() {
		t.Error("stale handle reports Pending after its slot was recycled")
	}
	if a.Stop() {
		t.Error("Stop on a fired event's recycled slot should report false")
	}
	if !b.Pending() {
		t.Fatal("stale Stop cancelled an unrelated event sharing the slot")
	}
	s.Run()
	if !fired {
		t.Error("b never fired")
	}
	if a.When() != time.Second || b.When() != 2*time.Second {
		t.Errorf("When() lost after recycling: a=%v b=%v", a.When(), b.When())
	}
}

// TestStopStoppedThenRecycledSlot is the same hazard via the Stop path:
// a stopped event's slot is recycled immediately, and the old handle
// must stay dead.
func TestStopStoppedThenRecycledSlot(t *testing.T) {
	s := New()
	a := s.Schedule(time.Second, func() { t.Error("stopped event fired") })
	if !a.Stop() {
		t.Fatal("first Stop should report true")
	}
	fired := false
	b := s.Schedule(time.Second, func() { fired = true }) // reuses a's slot
	if a.Stop() {
		t.Error("second Stop on a stale handle should report false")
	}
	if a.Pending() {
		t.Error("stale handle reports Pending")
	}
	s.Run()
	if !fired {
		t.Error("b never fired (stale handle interfered)")
	}
	_ = b
}

// TestStopSameInstantSibling: an event stopping a later same-instant
// sibling must prevent the sibling from firing, and the stale entry the
// stop leaves behind must be counted exactly.
func TestStopSameInstantSibling(t *testing.T) {
	s := New()
	var c Event
	var fired []string
	s.Schedule(time.Second, func() {
		fired = append(fired, "a")
		if !c.Stop() {
			t.Error("stopping a same-instant pending sibling should report true")
		}
		if m := miscount(s); m != "" {
			t.Errorf("after the stop: %s", m)
		}
	})
	s.Schedule(time.Second, func() { fired = append(fired, "b") })
	c = s.Schedule(time.Second, func() { fired = append(fired, "c") })
	s.RunFor(2 * time.Second)
	if got := strings.Join(fired, ","); got != "a,b" {
		t.Errorf("fired %s, want a,b", got)
	}
	if m := miscount(s); m != "" {
		t.Errorf("after the drain: %s", m)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", s.Pending())
	}
}

// TestTickerStopInsideCallbackWithReuse: a ticker stopped from inside
// its own callback must not re-arm, even with slot recycling churn from
// other events in flight.
func TestTickerStopInsideCallbackWithReuse(t *testing.T) {
	s := New()
	churn := 0
	s.Every(300*time.Millisecond, func() { churn++ })
	n := 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(10 * time.Second)
	if n != 3 {
		t.Errorf("ticker fired %d times after Stop inside callback, want 3", n)
	}
	if churn == 0 {
		t.Error("churn ticker never fired")
	}
}

// TestReentrantRunPreservesOrder: a callback that re-enters the event
// loop must see its same-instant siblings fire before any later
// instant, at the right clock reading.
func TestReentrantRunPreservesOrder(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(time.Second, func() {
		order = append(order, "A")
		s.Run() // re-enter while sibling B is still queued
		order = append(order, "A-done")
	})
	s.Schedule(time.Second, func() {
		order = append(order, fmt.Sprintf("B@%v", s.Now()))
	})
	s.Schedule(2*time.Second, func() {
		order = append(order, fmt.Sprintf("C@%v", s.Now()))
	})
	s.Run()
	want := "A,B@1s,C@2s,A-done"
	got := strings.Join(order, ",")
	if got != want {
		t.Fatalf("re-entrant order = %s, want %s", got, want)
	}
}

// TestReentrantStepFiresSameInstantSibling: Step from inside a callback
// fires the next same-instant event, exactly as the one-at-a-time
// kernel did.
func TestReentrantStepFiresSameInstantSibling(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(time.Second, func() {
		order = append(order, 1)
		if !s.Step() {
			t.Error("re-entrant Step found nothing despite a pending sibling")
		}
		order = append(order, 3)
	})
	s.Schedule(time.Second, func() { order = append(order, 2) })
	s.RunFor(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", s.Pending())
	}
}

// TestPendingCountWithLazyCancellation: Sim.Pending must count live
// events only, regardless of stale entries still inside the heap.
func TestPendingCountWithLazyCancellation(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, s.Schedule(Time(i+1)*Time(time.Second), func() {}))
	}
	for i := 0; i < 100; i += 2 {
		evs[i].Stop()
	}
	if got := s.Pending(); got != 50 {
		t.Fatalf("Pending = %d after stopping half, want 50", got)
	}
	fired := 0
	for s.Step() {
		fired++
	}
	if fired != 50 {
		t.Fatalf("fired %d events, want 50", fired)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", s.Pending())
	}
}
