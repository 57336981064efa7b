package des

import (
	"testing"
	"time"
)

func TestNextAt(t *testing.T) {
	s := New()
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt on empty sim reported an event")
	}
	ev := s.Schedule(3*time.Second, func() {})
	cev := s.AfterCall(4*time.Second, func(any) {}, nil)
	fev := s.Schedule(time.Hour, func() {}) // beyond the wheel's reach: the far heap
	s.Schedule(2*time.Hour, func() {})
	if at, ok := s.NextAt(); !ok || at != 3*time.Second {
		t.Fatalf("NextAt = %v,%v, want 3s,true", at, ok)
	}
	ev.Stop()
	if at, ok := s.NextAt(); !ok || at != 4*time.Second {
		t.Fatalf("NextAt after Stop = %v,%v, want 4s,true", at, ok)
	}
	cev.Stop()
	if at, ok := s.NextAt(); !ok || at != time.Hour {
		t.Fatalf("NextAt with the wheel empty = %v,%v, want the far top 1h,true", at, ok)
	}
	fev.Stop()
	if at, ok := s.NextAt(); !ok || at != 2*time.Hour {
		t.Fatalf("NextAt after the far Stop = %v,%v, want 2h,true", at, ok)
	}
	s.Run()
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt after drain reported an event")
	}
}

// TestStepLoopKeepsQueueBounded drives the kernel the way a traced run
// does, through NextAt and Step only, over a far backlog and a 30 s
// ticker: every cycle arms a 60 s timeout with AfterCall, as the
// controller does, steps one 10 ms hop and stops the timeout. A stopped
// timeout's bucket comes due only a minute later, and the ticker keeps a
// live entry ahead of most of them, so the wheel must compact under
// NextAt and Step as under Run. Otherwise they pile up in the queue.
func TestStepLoopKeepsQueueBounded(t *testing.T) {
	s := New()
	for i := 1; i <= 1000; i++ {
		s.Schedule(Time(i)*Time(time.Hour), func() {})
	}
	noop := func() {}
	s.Every(30*time.Second, noop)
	for i := 0; i < 20_000; i++ {
		timeout := s.AfterCall(time.Minute, func(any) {}, nil)
		hop := s.After(10*time.Millisecond, noop).When()
		for at, ok := s.NextAt(); ok && at <= hop; at, ok = s.NextAt() {
			s.Step()
		}
		timeout.Stop()
		if n := wheelLen(&s.wheel) + len(s.far.h); n > s.Pending()+130 {
			t.Fatalf("cycle %d: queue holds %d entries for %d pending events", i, n, s.Pending())
		}
	}
}

// wheelLen counts the entries w holds, walking its head array and every
// bucket list.
func wheelLen(w *wheel) int {
	n := len(w.due)
	for _, heads := range [][]int32{w.l0[:], w.l1[:]} {
		for _, l := range heads {
			for ; l != 0; l = w.links[l].next {
				n++
			}
		}
	}
	return n
}
