package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestScheduleOrdersByTime(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of scheduling order: %v", got)
		}
	}
}

func TestAfterUsesCurrentNow(t *testing.T) {
	s := New()
	var fired Time
	s.Schedule(5*time.Second, func() {
		s.After(2*time.Second, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 7*time.Second {
		t.Errorf("nested After fired at %v, want 7s", fired)
	}
}

func TestStopPreventsFiring(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(time.Second, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending")
	}
	if !e.Stop() {
		t.Fatal("first Stop should report true")
	}
	if e.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Error("stopped event fired")
	}
}

func TestStopMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	events := make([]Event, 0, 5)
	for i := 0; i < 5; i++ {
		i := i
		events = append(events, s.Schedule(Time(i+1)*Time(time.Second), func() { got = append(got, i) }))
	}
	events[2].Stop()
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStopAfterFiredIsNoop(t *testing.T) {
	s := New()
	e := s.Schedule(time.Second, func() {})
	s.Run()
	if e.Stop() {
		t.Error("Stop after firing should report false")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(1*time.Second, func() { fired++ })
	s.Schedule(10*time.Second, func() { fired++ })
	s.RunUntil(5 * time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.RunUntil(10 * time.Second)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(5*time.Second, func() { fired = true })
	s.RunUntil(5 * time.Second)
	if !fired {
		t.Error("event at the boundary instant should fire")
	}
}

func TestRunForAccumulates(t *testing.T) {
	s := New()
	s.RunFor(2 * time.Second)
	s.RunFor(3 * time.Second)
	if s.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.RunUntil(10 * time.Second)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	s.Schedule(5*time.Second, func() {})
}

func TestScheduleNilPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("nil callback should panic")
		}
	}()
	s.Schedule(time.Second, nil)
}

func TestTickerFiresAtInterval(t *testing.T) {
	s := New()
	var at []Time
	tk := s.Every(time.Minute, func() { at = append(at, s.Now()) })
	s.RunUntil(5*time.Minute + 30*time.Second)
	tk.Stop()
	if len(at) != 5 {
		t.Fatalf("ticker fired %d times, want 5", len(at))
	}
	for i, want := 0, time.Minute; i < 5; i, want = i+1, want+time.Minute {
		if at[i] != want {
			t.Errorf("tick %d at %v, want %v", i, at[i], want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New()
	n := 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(time.Minute)
	if n != 3 {
		t.Errorf("ticker fired %d times after Stop inside callback, want 3", n)
	}
}

func TestTickerStopTwice(t *testing.T) {
	s := New()
	tk := s.Every(time.Second, func() {})
	tk.Stop()
	tk.Stop() // must not panic
}

func TestEveryFromFirstInstant(t *testing.T) {
	s := New()
	var first Time = -1
	tk := s.EveryFrom(10*time.Second, time.Minute, func() {
		if first < 0 {
			first = s.Now()
		}
	})
	s.RunUntil(2 * time.Minute)
	tk.Stop()
	if first != 10*time.Second {
		t.Errorf("first tick at %v, want 10s", first)
	}
}

func TestEventsDuringStepSeeAdvancedClock(t *testing.T) {
	s := New()
	var seen Time
	s.Schedule(42*time.Second, func() { seen = s.Now() })
	s.Run()
	if seen != 42*time.Second {
		t.Errorf("callback saw Now = %v, want 42s", seen)
	}
}

// Property: for any set of event offsets, events fire in nondecreasing time
// order and the clock never goes backwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		var fired []Time
		for _, off := range offsets {
			at := Time(off) * Time(time.Millisecond)
			s.Schedule(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		sorted := make([]Time, len(fired))
		copy(sorted, fired)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: randomly stopping a subset of events fires exactly the others.
func TestPropertyStopSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		s := New()
		n := 1 + rng.Intn(50)
		fired := make([]bool, n)
		events := make([]Event, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = s.Schedule(Time(rng.Intn(1000))*Time(time.Millisecond), func() { fired[i] = true })
		}
		stopped := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				events[i].Stop()
				stopped[i] = true
			}
		}
		s.Run()
		for i := 0; i < n; i++ {
			if fired[i] == stopped[i] {
				t.Fatalf("trial %d: event %d fired=%v stopped=%v", trial, i, fired[i], stopped[i])
			}
		}
	}
}

// BenchmarkScheduleAndRun measures steady-state queue throughput: one
// long-lived Sim (the shape of every experiment — a 24-hour run keeps
// one Sim for tens of millions of events) scheduling and draining 1000
// events per iteration. Steady state is allocation-free: the heap
// entries and the node pool are reused.
func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	s := New()
	fn := func() {}
	for j := 0; j < 1000; j++ { // warm the pool so -benchtime=1x measures steady state
		s.Schedule(Time(j), fn)
	}
	s.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := s.Now()
		for j := 0; j < 1000; j++ {
			s.Schedule(base+Time(j)*Time(time.Millisecond), fn)
		}
		s.Run()
	}
}

// BenchmarkTraceBacklog measures the request path over a large far
// backlog: about 6,400 events spread over 24 h wait in the queue (each
// re-arms itself a day later when it fires, so the backlog stays put),
// as many as a day's idle-period boundaries. slurm.DriveTrace streams
// those, keeping one start and the open periods' ends pending, so this
// backlog stands well above what a trace-driven day's far heap holds.
// One op is one request-shaped cycle: arm a 60 s timeout with AfterCall,
// as the controller does, run 6 chained hops of 10–400 ms, stop the
// timeout. Steady state is allocation-free.
func BenchmarkTraceBacklog(b *testing.B) {
	b.ReportAllocs()
	s := New()
	var rearm func(any)
	rearm = func(any) { s.AfterCall(24*time.Hour, rearm, nil) }
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6400; i++ {
		s.AfterCall(Time(rng.Int63n(int64(24*time.Hour))), rearm, nil)
	}
	hops := [...]time.Duration{10, 40, 120, 400, 25, 80}
	var chain time.Duration
	for i := range hops {
		hops[i] *= time.Millisecond
		chain += hops[i]
	}
	left := 0
	var hop func(any)
	hop = func(any) {
		if left > 0 {
			left--
			s.AfterCall(hops[left], hop, nil)
		}
	}
	noop := func(any) {}
	cycle := func() {
		timeout := s.AfterCall(time.Minute, noop, nil)
		left = len(hops)
		hop(nil)
		s.RunFor(chain)
		timeout.Stop()
	}
	for i := 0; i < 1000; i++ { // warm the pool so -benchtime=1x measures steady state
		cycle()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkDenseRequestPath measures the kernel in federated-burst's
// shape: 1,000 request chains in flight, each hop 1–200 ms after the
// last, so a due bucket of about 1 ms holds several entries. Every 7th
// hop of a chain ends one request and starts the next: it stops the
// request's 60 s timeout and arms a new one, as the controller does.
// One op fires 1,000 hops. Steady state is allocation-free.
func BenchmarkDenseRequestPath(b *testing.B) {
	b.ReportAllocs()
	s := New()
	rng := rand.New(rand.NewSource(1))
	var delays [1024]time.Duration
	for i := range delays {
		delays[i] = time.Millisecond + time.Duration(rng.Int63n(int64(199*time.Millisecond)))
	}
	type chain struct {
		hops    int
		timeout Event
	}
	chains := make([]chain, 1000)
	noop := func(any) {}
	draw := 0
	var hop func(any)
	hop = func(v any) {
		c := v.(*chain)
		if c.hops++; c.hops%7 == 0 {
			c.timeout.Stop()
			c.timeout = s.AfterCall(time.Minute, noop, nil)
		}
		draw++
		s.AfterCall(delays[draw&1023], hop, c)
	}
	for i := range chains {
		chains[i].timeout = s.AfterCall(time.Minute, noop, nil)
		s.AfterCall(delays[i], hop, &chains[i])
	}
	for i := 0; i < 200_000; i++ { // warm the pools so -benchtime=1x measures steady state
		s.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			s.Step()
		}
	}
}

// BenchmarkFreshSim tracks the cold-start cost: a new Sim's slab,
// wheel, and free list grow from empty each iteration (the wheel's
// fixed bucket arrays come with the Sim).
func BenchmarkFreshSim(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.Schedule(Time(j)*Time(time.Millisecond), func() {})
		}
		s.Run()
	}
}

// TestScheduleCallPassesArg: each typed event (AfterCall) gets its own
// argument, in (instant, sequence) order, and the slot that holds the
// callback and its argument is 40 bytes.
func TestScheduleCallPassesArg(t *testing.T) {
	s := New()
	var got []any
	record := func(v any) { got = append(got, v) }
	s.AfterCall(2*time.Second, record, "b")
	s.AfterCall(time.Second, record, 1)
	s.AfterCall(3*time.Second, record, nil)
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != "b" || got[2] != nil {
		t.Errorf("got = %v, want [1 b <nil>]", got)
	}
	if n := unsafe.Sizeof(node{}); n != 40 {
		t.Errorf("node is %d bytes, want 40", n)
	}
}

func TestScheduleCallInterleavesWithSchedule(t *testing.T) {
	// Typed-arg and plain events share one (instant, sequence) order,
	// including same-instant FIFO across the two APIs.
	s := New()
	var order []int
	record := func(v any) { order = append(order, v.(int)) }
	s.Schedule(time.Second, func() { order = append(order, 0) })
	s.AfterCall(time.Second, record, 1)
	s.Schedule(time.Second, func() { order = append(order, 2) })
	s.AfterCall(time.Second, record, 3)
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want [0 1 2 3]", order)
		}
	}
}

func TestScheduleCallStopAndRecycle(t *testing.T) {
	s := New()
	fired := false
	e := s.AfterCall(time.Second, func(any) { fired = true }, "payload")
	if !e.Stop() {
		t.Fatal("stop on pending typed-arg event should report true")
	}
	// The released slot must be clean for the next scheduling, whether
	// it is typed or plain, and the stale handle must stay inert.
	ran := 0
	s.Schedule(time.Second, func() { ran++ })
	s.AfterCall(2*time.Second, func(any) { ran++ }, nil)
	if e.Stop() {
		t.Error("stop on a recycled slot should be a no-op")
	}
	s.Run()
	if fired || ran != 2 {
		t.Errorf("fired=%v ran=%d, want false 2", fired, ran)
	}
}

func TestScheduleCallNilPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("nil typed callback should panic")
		}
	}()
	s.AfterCall(time.Second, nil, 7)
}

func TestScheduleCallPastPanics(t *testing.T) {
	s := New()
	s.RunUntil(10 * time.Second)
	defer func() {
		if recover() == nil {
			t.Error("typed scheduling in the past should panic")
		}
	}()
	s.AfterCall(-5*time.Second, func(any) {}, nil)
}

// TestScheduleCallInKeepsReservedPlaces: events queued into reserved
// places, in any order and after later schedulings at their instant, fire
// where schedulings at the reservation would have.
func TestScheduleCallInKeepsReservedPlaces(t *testing.T) {
	s := New()
	var order []int
	record := func(v any) { order = append(order, v.(int)) }
	s.AfterCall(time.Second, record, 0)
	ps := s.Reserve(3)
	s.AfterCall(time.Second, record, 4)
	s.ScheduleCallIn(ps, 2, time.Second, record, 3)
	s.ScheduleCallIn(ps, 0, time.Second, record, 1)
	s.AfterCall(time.Second, record, 5)
	s.ScheduleCallIn(ps, 1, time.Second, record, 2)
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want [0 1 2 3 4 5]", order)
		}
	}
}

func TestScheduleCallInOutOfRangePanics(t *testing.T) {
	s := New()
	ps := s.Reserve(2)
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("place %d of 2 should panic", i)
				}
			}()
			s.ScheduleCallIn(ps, i, time.Second, func(any) {}, nil)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("a negative reservation should panic")
		}
	}()
	s.Reserve(-1)
}

// BenchmarkScheduleCallAndRun is BenchmarkScheduleAndRun for the
// typed-arg hot path (AfterCall): steady state must stay allocation-free
// even though every event carries a distinct pointer argument.
func BenchmarkScheduleCallAndRun(b *testing.B) {
	b.ReportAllocs()
	s := New()
	fn := func(any) {}
	arg := &struct{ n int }{}
	for j := 0; j < 1000; j++ {
		s.AfterCall(Time(j), fn, arg)
	}
	s.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			s.AfterCall(Time(j)*Time(time.Millisecond), fn, arg)
		}
		s.Run()
	}
}
