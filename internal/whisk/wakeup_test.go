package whisk

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
)

// TestNewInvokerRejectsUnusableConfig: a configuration that cannot make
// progress panics at construction instead of dividing by zero on the
// poll grid or silently timing out every request.
func TestNewInvokerRejectsUnusableConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*InvokerConfig)
		want string
	}{
		{"zero capacity", func(c *InvokerConfig) { c.Capacity = 0 }, "capacity"},
		{"zero poll interval", func(c *InvokerConfig) { c.PollInterval = 0 }, "poll interval"},
		{"negative poll interval", func(c *InvokerConfig) { c.PollInterval = -time.Millisecond }, "poll interval"},
		{"zero pull batch", func(c *InvokerConfig) { c.PullBatch = 0 }, "pull batch"},
		{"negative pull batch", func(c *InvokerConfig) { c.PullBatch = -1 }, "pull batch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultInvokerConfig()
			tc.mut(&cfg)
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("NewInvoker panic = %v, want one mentioning %q", r, tc.want)
				}
			}()
			NewInvoker(cfg, 1)
		})
	}
}

// TestIdleInvokerSchedulesNothing: with no work queued anywhere, a
// registered invoker keeps no event pending — idle time is free.
func TestIdleInvokerSchedulesNothing(t *testing.T) {
	sim, _, _ := newSystem(1)
	if n := sim.Pending(); n != 0 {
		t.Fatalf("pending events after Register = %d, want 0", n)
	}
	sim.RunFor(time.Hour)
	if n := sim.Pending(); n != 0 {
		t.Fatalf("pending events after an idle hour = %d, want 0", n)
	}
}

// handoffRig registers a capacity-1 invoker holding one running and
// one buffered call by 2 s, so its Sigterm pushes exactly one message
// to the fast lane. before runs ahead of the first simulated event.
func handoffRig(t *testing.T, before func(*des.Sim)) (*des.Sim, *Controller, *Invoker) {
	t.Helper()
	sim := des.New()
	c := NewController(sim, bus.New[*Invocation](sim, nil, 1), DefaultControllerConfig(), 2)
	c.RegisterAction(&Action{Name: "long", Exec: FixedExec(30 * time.Second)})
	cfg := DefaultInvokerConfig()
	cfg.Capacity = 1
	x := NewInvoker(cfg, 3)
	c.Register(x)
	c.Invoke("long", nil)
	c.Invoke("long", nil)
	if before != nil {
		before(sim)
	}
	sim.RunUntil(2 * time.Second)
	if len(x.running) != 1 || x.Buffered() != 1 {
		t.Fatalf("rig: running=%d buffered=%d, want 1 and 1", len(x.running), x.Buffered())
	}
	return sim, c, x
}

// expectPickup checks that the fast-lane message is still waiting just
// before at and has been pulled by want (and no one else) at at.
func expectPickup(t *testing.T, sim *des.Sim, c *Controller, at des.Time, want *Invoker, all ...*Invoker) {
	t.Helper()
	sim.RunUntil(at - 1)
	if c.FastLaneDepth() != 1 {
		t.Fatalf("fast lane depth %v before pickup = %d, want 1", at-1, c.FastLaneDepth())
	}
	sim.RunUntil(at)
	if c.FastLaneDepth() != 0 {
		t.Fatalf("fast lane depth at %v = %d, want 0", at, c.FastLaneDepth())
	}
	for _, w := range all {
		exp := 0
		if w == want {
			exp = 1
		}
		if got := len(w.running); got != exp {
			t.Errorf("invoker attached at %v runs %d calls at %v, want %d", w.attachedAt, got, at, exp)
		}
	}
}

// TestFastLanePickupAtNextPollPhase pins when hand-off work is pulled:
// at the earliest first grid instant after the push among the healthy
// invokers, whichever event pushed it.
func TestFastLanePickupAtNextPollPhase(t *testing.T) {
	const ms = time.Millisecond
	t.Run("earliest phase wins", func(t *testing.T) {
		sim, c, x := handoffRig(t, nil)
		var ws []*Invoker
		for _, off := range []time.Duration{0, 30 * ms, 70 * ms} {
			sim.RunUntil(2*time.Second + off)
			w := NewInvoker(DefaultInvokerConfig(), int64(off))
			c.Register(w)
			ws = append(ws, w)
		}
		sim.RunUntil(2150 * ms)
		x.Sigterm(false, nil)
		// Next phases: 2.2 s, 2.23 s and 2.17 s.
		expectPickup(t, sim, c, 2170*ms, ws[2], ws...)
	})
	t.Run("push on the grid from an old event", func(t *testing.T) {
		var x *Invoker
		sim, c, x := handoffRig(t, func(sim *des.Sim) {
			// Queued at 0: how long ago the pushing event was scheduled
			// does not matter, the push at 2.5 s is picked up at 2.6 s.
			sim.Schedule(2500*ms, func() { x.Sigterm(false, nil) })
		})
		w := NewInvoker(DefaultInvokerConfig(), 9)
		c.Register(w) // grid 2.1 s, 2.2 s, …
		sim.RunUntil(2500*ms - 1)
		if c.FastLaneDepth() != 0 {
			t.Fatal("fast lane filled before the scheduled Sigterm")
		}
		expectPickup(t, sim, c, 2600*ms, w, w)
	})
	t.Run("push on the grid after RunUntil", func(t *testing.T) {
		sim, c, x := handoffRig(t, nil)
		w := NewInvoker(DefaultInvokerConfig(), 9)
		c.Register(w) // grid 2.1 s, 2.2 s, …
		sim.RunUntil(2500 * ms)
		x.Sigterm(false, nil) // the 2.5 s poll already ran
		expectPickup(t, sim, c, 2600*ms, w, w)
	})
}

// TestSharedPhasePeerOrder pins the same-instant order of invokers
// whose poll grids coincide: a fast-lane push arms them in slot order
// (wakeInvokers), so at the shared grid instant the lowest slot pulls
// first, whenever the event that attached each invoker was scheduled.
func TestSharedPhasePeerOrder(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name     string
		queuedAt []des.Time // when each late invoker's attach event is scheduled
		spares   int        // slots below the early invoker's left free for the late ones
		winner   int        // index into [early, late...] of the expected puller
	}{
		{"old attach event goes behind", []des.Time{0}, 0, 0},
		{"recent attach event goes behind", []des.Time{2950 * ms}, 0, 0},
		{"same-instant attaches keep their order", []des.Time{0, 0}, 2, 1},
		{"lower slot goes ahead", []des.Time{2950 * ms}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c *Controller
			ws := make([]*Invoker, 1+len(tc.queuedAt))
			for i := range ws {
				ws[i] = NewInvoker(DefaultInvokerConfig(), int64(10+i))
			}
			sim, c, x := handoffRig(t, func(sim *des.Sim) {
				for i, q := range tc.queuedAt {
					w := ws[1+i]
					// Attach at 3 s, on the early invoker's grid.
					sim.Schedule(q, func() { sim.Schedule(3*time.Second, func() { c.Register(w) }) })
				}
			})
			// At 2 s, outside any event: idle spares take the slots below
			// the early invoker's and drain at once, leaving them free.
			spares := make([]*Invoker, tc.spares)
			for i := range spares {
				spares[i] = NewInvoker(DefaultInvokerConfig(), int64(20+i))
				c.Register(spares[i])
			}
			c.Register(ws[0])
			for _, s := range spares {
				s.Sigterm(false, nil)
			}
			sim.RunUntil(3150 * ms)
			for _, w := range ws[1 : 1+tc.spares] {
				if w.slot >= ws[0].slot {
					t.Fatalf("late invoker in slot %d, early one in slot %d; want the late one lower", w.slot, ws[0].slot)
				}
			}
			x.Sigterm(false, nil)
			expectPickup(t, sim, c, 3200*ms, ws[tc.winner], ws...)
		})
	}
}
