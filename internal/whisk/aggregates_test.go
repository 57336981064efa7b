package whisk

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/dist"
)

// checkAggregates cross-checks every maintained controller aggregate
// against the from-scratch scan oracle.
func checkAggregates(t *testing.T, c *Controller, op int) {
	t.Helper()
	healthy, draining, capacity, busy, backlog := c.recomputeAggregates()
	if c.nHealthy != healthy || c.nDraining != draining || c.healthyCap != capacity ||
		c.busyHealthy != busy || c.backlog != backlog {
		t.Fatalf("op %d: aggregates diverged from scan:\nlive: healthy=%d draining=%d cap=%d busy=%d backlog=%d\nscan: healthy=%d draining=%d cap=%d busy=%d backlog=%d",
			op, c.nHealthy, c.nDraining, c.healthyCap, c.busyHealthy, c.backlog,
			healthy, draining, capacity, busy, backlog)
	}
}

// checkWakeups pins the poll wake-up invariant: a healthy invoker with
// work queued on the fast lane or its own topic has a wake-up pending at
// its next poll-grid instant (attach + k·PollInterval, k ≥ 1, at most
// one interval ahead), and no draining or gone invoker has one. It
// returns how many armed invokers it checked.
func checkWakeups(t *testing.T, c *Controller, ws []*Invoker, op int) (armed int) {
	t.Helper()
	now := c.sim.Now()
	for _, w := range ws {
		if w.state != InvokerHealthy {
			if w.wake.Pending() {
				t.Fatalf("op %d: %v invoker %d has a pending wake-up", op, w.state, w.slot)
			}
			continue
		}
		if !w.hasWork() {
			continue
		}
		if !w.wake.Pending() {
			t.Fatalf("op %d: healthy invoker %d has work queued but no wake-up", op, w.slot)
		}
		at, iv := w.wake.When(), w.cfg.PollInterval
		if at <= w.attachedAt || (at-w.attachedAt)%iv != 0 || at < now || at > now+iv {
			t.Fatalf("op %d: invoker %d wakes at %v, off its grid (attached %v, interval %v, now %v)",
				op, w.slot, at, w.attachedAt, iv, now)
		}
		armed++
	}
	return armed
}

// checkIdleHeap verifies an invoker's idle min-heap invariants against
// the pool: membership (exactly the sets with idle > 0,
// each knowing its index), the heap order, and — the property eviction
// relies on — root == the scan oracle's victim.
func checkIdleHeap(t *testing.T, w *Invoker, op int) {
	t.Helper()
	idleSets := 0
	for _, cs := range w.pool {
		if cs.idle > 0 {
			idleSets++
			if cs.heapIdx < 0 || cs.heapIdx >= len(w.idleHeap) || w.idleHeap[cs.heapIdx] != cs {
				t.Fatalf("op %d: idle set %q not correctly in heap (heapIdx=%d)", op, cs.name, cs.heapIdx)
			}
		} else if cs.heapIdx != -1 {
			t.Fatalf("op %d: non-idle set %q still in heap (heapIdx=%d)", op, cs.name, cs.heapIdx)
		}
	}
	if idleSets != len(w.idleHeap) {
		t.Fatalf("op %d: heap has %d members, pool has %d idle sets", op, len(w.idleHeap), idleSets)
	}
	for i := 1; i < len(w.idleHeap); i++ {
		if idleLess(w.idleHeap[i], w.idleHeap[(i-1)/2]) {
			t.Fatalf("op %d: heap order violated at index %d", op, i)
		}
	}
	want := w.recomputeEvictionVictim()
	if len(w.idleHeap) == 0 {
		if want != nil {
			t.Fatalf("op %d: empty heap but oracle found victim %q", op, want.name)
		}
		return
	}
	if w.idleHeap[0] != want {
		t.Fatalf("op %d: heap victim %q != scan victim %q", op, w.idleHeap[0].name, want.name)
	}
}

// TestAggregateStormMatchesRecompute is the equivalence property test
// of the O(1) control-plane telemetry: after every operation of a
// randomized register/drain/kill/invoke storm, the incrementally
// maintained aggregates (HealthyCount, Utilization's numerator and
// denominator, DrainingCount, QueueDepth) must equal the from-scratch
// slot scans they replaced, every invoker's eviction min-heap must
// agree with the dense-scan LRU oracle, and every invoker with work
// queued must have its poll wake-up armed. Any future transition that
// forgets a counter update or a wake-up fails here loudly.
func TestAggregateStormMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sim := des.New()
			b := bus.New(sim, nil, seed+1)
			cfg := DefaultControllerConfig()
			cfg.ActionTimeout = 1500 * time.Millisecond
			c := NewController(sim, b, cfg, seed+2)

			actions := make([]string, 8)
			for i := range actions {
				actions[i] = fmt.Sprintf("agg-%d", i)
				c.RegisterAction(&Action{
					Name:          actions[i],
					MemoryMB:      256,
					Exec:          DistExec(dist.Uniform{Lo: 0.01, Hi: 2.0}),
					Interruptible: i%2 == 0,
				})
			}

			rng := dist.NewRand(seed + 3)
			icfg := DefaultInvokerConfig()
			icfg.BufferLimit = 8 // small enough that pressure rejects happen
			icfg.PullBatch = 4
			icfg.PoolLimit = 3 // far below the action count: evictions every few warm misses
			var invokers []*Invoker
			alive := func() []*Invoker {
				out := invokers[:0:0]
				for _, w := range invokers {
					if w.State() == InvokerHealthy {
						out = append(out, w)
					}
				}
				return out
			}

			armed := 0
			for op := 0; op < 2500; op++ {
				switch rng.Intn(12) {
				case 0: // register a fresh invoker
					w := NewInvoker(icfg, rng.Int63())
					c.Register(w)
					invokers = append(invokers, w)
				case 1: // graceful drain of a random healthy invoker
					if up := alive(); len(up) > 0 {
						up[rng.Intn(len(up))].Sigterm(rng.Intn(2) == 0, nil)
					}
				case 2: // hard kill with work on board
					if up := alive(); len(up) > 0 {
						up[rng.Intn(len(up))].Kill()
					}
				case 3: // let virtual time pass
					sim.RunFor(time.Duration(rng.Intn(5000)) * time.Millisecond)
				default: // invoke (the storm is mostly traffic)
					c.Invoke(actions[rng.Intn(len(actions))], nil)
					sim.RunFor(time.Duration(rng.Intn(200)) * time.Millisecond)
				}
				checkAggregates(t, c, op)
				armed += checkWakeups(t, c, invokers, op)
				for _, w := range invokers {
					checkIdleHeap(t, w, op)
				}
			}
			// Drain past the action timeout so rotting messages resolve,
			// and check the quiesced end state once more.
			sim.RunFor(cfg.ActionTimeout + 5*time.Minute)
			checkAggregates(t, c, -1)
			var cold, warm int
			for _, w := range invokers {
				checkIdleHeap(t, w, -1)
				cold += w.ColdStarts
				warm += w.WarmStarts
			}
			if cold == 0 || warm == 0 {
				t.Fatalf("storm never exercised the container pool (cold=%d warm=%d) — the heap checks would be vacuous", cold, warm)
			}
			if armed == 0 {
				t.Fatal("storm never queued work for a healthy invoker — the wake-up checks would be vacuous")
			}
		})
	}
}
