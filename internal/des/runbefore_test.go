package des

import (
	"testing"
	"time"
)

func TestRunBeforeExcludesEnd(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	s.Schedule(2*time.Second, func() { got = append(got, 3) })
	s.RunBefore(2 * time.Second)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("RunBefore(2s) fired %v, want [1]", got)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", s.Now())
	}
	// The events at exactly end are still pending and fire in seq order.
	s.RunUntil(2 * time.Second)
	want := []int{1, 2, 3}
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("after RunUntil(2s): %v, want %v", got, want)
	}
}

func TestRunBeforeThenScheduleAtNow(t *testing.T) {
	s := New()
	s.RunBefore(5 * time.Second)
	fired := false
	// Scheduling at exactly the advanced clock stays legal.
	s.Schedule(5*time.Second, func() { fired = true })
	s.RunUntil(5 * time.Second)
	if !fired {
		t.Fatal("event at now did not fire")
	}
}

// TestRunBeforeMatchesRunUntil pins the windowing identity the pdes
// coordinator relies on: chopping a horizon into half-open RunBefore
// windows plus a final inclusive RunUntil fires exactly the events a
// single RunUntil fires, in the same order — including events that
// callbacks schedule into their own or later windows.
func TestRunBeforeMatchesRunUntil(t *testing.T) {
	build := func(s *Sim, log *[]Time) {
		for i := 0; i < 10; i++ {
			at := time.Duration(i*100) * time.Millisecond
			s.Schedule(at, func() {
				*log = append(*log, s.Now())
				if s.Now() < 800*time.Millisecond {
					s.After(150*time.Millisecond, func() { *log = append(*log, s.Now()) })
				}
			})
		}
	}

	var seqLog []Time
	seq := New()
	build(seq, &seqLog)
	seq.RunUntil(time.Second)

	var winLog []Time
	win := New()
	build(win, &winLog)
	for end := 250 * time.Millisecond; end <= time.Second; end += 250 * time.Millisecond {
		win.RunBefore(end)
	}
	win.RunUntil(time.Second)

	if len(seqLog) != len(winLog) {
		t.Fatalf("event counts differ: %d vs %d", len(seqLog), len(winLog))
	}
	for i := range seqLog {
		if seqLog[i] != winLog[i] {
			t.Fatalf("event %d at %v (windowed) vs %v (sequential)", i, winLog[i], seqLog[i])
		}
	}
}

func TestNextAt(t *testing.T) {
	s := New()
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt on empty sim reported an event")
	}
	ev := s.Schedule(3*time.Second, func() {})
	lev := s.Lane(4*time.Second).AfterCall(func(any) {}, nil)
	s.Schedule(5*time.Second, func() {})
	if at, ok := s.NextAt(); !ok || at != 3*time.Second {
		t.Fatalf("NextAt = %v,%v, want 3s,true", at, ok)
	}
	ev.Stop()
	if at, ok := s.NextAt(); !ok || at != 4*time.Second {
		t.Fatalf("NextAt after Stop = %v,%v, want the lane head 4s,true", at, ok)
	}
	lev.Stop()
	if at, ok := s.NextAt(); !ok || at != 5*time.Second {
		t.Fatalf("NextAt after the lane Stop = %v,%v, want 5s,true", at, ok)
	}
	s.Run()
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt after drain reported an event")
	}
}

// TestStepLoopKeepsQueueBounded drives the kernel the way a traced run
// does, through NextAt and Step only, over a far backlog and a 30 s
// ticker: every cycle arms a 60 s timeout, steps one 10 ms hop and
// stops the timeout. The ticker keeps a live entry ahead of most stopped
// timeouts, so discarding stale tops alone cannot clear them. Armed in
// the near heap, they must be compacted under NextAt and Step as under
// Run; armed on their lane, as the controller arms them, where a
// stopped timeout reaches the head only a minute later, the lane must
// compact as they are stopped. Otherwise they pile up in the queue.
func TestStepLoopKeepsQueueBounded(t *testing.T) {
	for _, onLane := range []bool{false, true} {
		s := New()
		for i := 1; i <= 1000; i++ {
			s.Schedule(Time(i)*Time(time.Hour), func() {})
		}
		noop := func() {}
		s.Every(30*time.Second, noop)
		timeouts := s.Lane(time.Minute)
		arm := func() Event { return s.After(time.Minute, noop) }
		if onLane {
			arm = func() Event { return timeouts.AfterCall(func(any) {}, nil) }
		}
		for i := 0; i < 20_000; i++ {
			timeout := arm()
			hop := s.After(10*time.Millisecond, noop).When()
			for at, ok := s.NextAt(); ok && at <= hop; at, ok = s.NextAt() {
				s.Step()
			}
			timeout.Stop()
			n := len(s.near.h) + len(s.far.h) + len(timeouts.q) - timeouts.head
			if n > s.Pending()+130 {
				t.Fatalf("lane %v, cycle %d: queue holds %d entries for %d pending events", onLane, i, n, s.Pending())
			}
		}
	}
}
