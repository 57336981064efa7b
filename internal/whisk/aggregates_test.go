package whisk

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/dist"
)

// action returns the registered action of that name.
func (c *Controller) action(name string) *Action { return c.actionList[c.actions[name]] }

// checkAggregates cross-checks every maintained controller aggregate,
// and the healthy-slot bitmap, against the from-scratch scan oracle.
func checkAggregates(t *testing.T, c *Controller, op int) {
	t.Helper()
	healthy, draining, capacity, busy, backlog, healthySlots := c.recomputeAggregates()
	if c.nHealthy != healthy || c.nDraining != draining || c.healthyCap != capacity ||
		c.busyHealthy != busy || c.backlog != backlog {
		t.Fatalf("op %d: aggregates diverged from scan:\nlive: healthy=%d draining=%d cap=%d busy=%d backlog=%d\nscan: healthy=%d draining=%d cap=%d busy=%d backlog=%d",
			op, c.nHealthy, c.nDraining, c.healthyCap, c.busyHealthy, c.backlog,
			healthy, draining, capacity, busy, backlog)
	}
	var bitmap []int
	for w, word := range c.healthy {
		for ; word != 0; word &= word - 1 {
			bitmap = append(bitmap, w<<6+bits.TrailingZeros64(word))
		}
	}
	if len(c.healthy) != (len(c.slots)+63)/64 || !slices.Equal(bitmap, healthySlots) {
		t.Fatalf("op %d: healthy bitmap (%d words) holds slots %v, scan found %v over %d slots",
			op, len(c.healthy), bitmap, healthySlots, len(c.slots))
	}
}

// probeInvoker is the routing oracle: pickInvoker's rule as a linear
// probe of every slot from the home slot on, wrapping around. It also
// reports whether the pick passed a saturated home invoker and then a
// nil or draining slot, the case where walking only the healthy bits
// skips something.
func probeInvoker(c *Controller, a *Action) (pick *Invoker, skipped bool) {
	n := len(c.slots)
	if n == 0 {
		return nil, false
	}
	start := int(a.nameHash) % n
	var home *Invoker
	for i := 0; i < n; i++ {
		inv := c.slots[(start+i)%n]
		if inv == nil || inv.state != InvokerHealthy {
			skipped = skipped || home != nil
			continue
		}
		if home == nil {
			home = inv
		}
		if inv.Buffered() < inv.cfg.BufferLimit/2 {
			return inv, skipped
		}
	}
	return home, skipped
}

// checkRouting compares pickInvoker with the linear probe for every
// registered action and returns how many picks skipped a nil or
// draining slot past a saturated home.
func checkRouting(t *testing.T, c *Controller, op int) (skips int) {
	t.Helper()
	for _, a := range c.actionList {
		want, skipped := probeInvoker(c, a)
		if got := c.pickInvoker(a); got != want {
			t.Fatalf("op %d: pickInvoker(%s) = %s, linear probe picks %s", op, a.Name, slotName(got), slotName(want))
		}
		if skipped {
			skips++
		}
	}
	return skips
}

func slotName(w *Invoker) string {
	if w == nil {
		return "none"
	}
	return fmt.Sprintf("slot %d", w.slot)
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
		if cs == nil {
			continue
		}
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
// denominator, DrainingCount, QueueDepth) and the healthy-slot bitmap
// must equal the from-scratch slot scans they replaced, pickInvoker
// must pick what a linear probe of the slots picks for every action,
// every invoker's eviction min-heap must agree with the dense-scan LRU
// oracle, and every invoker with work queued must have its poll
// wake-up armed. Any future transition that forgets a counter update,
// a bitmap bit or a wake-up fails here loudly.
func TestAggregateStormMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sim := des.New()
			b := bus.New[*Invocation](sim, nil, seed+1)
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

			armed, skips := 0, 0
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
				case 4: // a burst on one action: routed before any of it lands, it saturates the home invoker
					a := actions[rng.Intn(len(actions))]
					for range 24 {
						c.Invoke(a, nil)
					}
				default: // invoke (the storm is mostly traffic)
					c.Invoke(actions[rng.Intn(len(actions))], nil)
					sim.RunFor(time.Duration(rng.Intn(200)) * time.Millisecond)
				}
				checkAggregates(t, c, op)
				skips += checkRouting(t, c, op)
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
			if skips == 0 {
				t.Fatal("no pick passed a saturated home and then a nil or draining slot — the routing checks would be vacuous")
			}
		})
	}
}

// TestPickInvokerMatchesProbeAcrossWords checks the bitmap walk where
// the aggregate storm, whose slot list stays within one 64-bit word,
// cannot: a churning list of up to 200 slots (four words), 100 actions
// whose homes land in every word, and bursts that saturate homes, so
// picks skip freed and draining slots and wrap from the last word to
// the first and back into the home slot's word.
func TestPickInvokerMatchesProbeAcrossWords(t *testing.T) {
	sim := des.New()
	cfg := DefaultControllerConfig()
	cfg.ActionTimeout = 1500 * time.Millisecond
	c := NewController(sim, bus.New[*Invocation](sim, nil, 1), cfg, 2)
	for i := 0; i < 100; i++ {
		c.RegisterAction(&Action{Name: fmt.Sprintf("fn-%d", i), MemoryMB: 256,
			Exec: DistExec(dist.Uniform{Lo: 0.5, Hi: 3.0}), Interruptible: i%2 == 0})
	}
	icfg := DefaultInvokerConfig()
	icfg.Capacity = 2 // small enough that a burst backs up the buffer
	icfg.BufferLimit = 8
	var ws []*Invoker
	for i := 0; i < 200; i++ {
		w := NewInvoker(icfg, int64(i))
		c.Register(w)
		ws = append(ws, w)
	}
	rng := dist.NewRand(3)
	skips, wraps := 0, 0
	for op := 0; op < 600; op++ {
		w := ws[rng.Intn(len(ws))]
		switch rng.Intn(7) {
		case 0, 1:
			w.Kill()
		case 2:
			w.Sigterm(rng.Intn(2) == 0, nil)
		case 3:
			w = NewInvoker(icfg, rng.Int63())
			c.Register(w)
			ws = append(ws, w)
		case 4:
			a := c.actionList[rng.Intn(len(c.actionList))]
			for range 12 {
				c.Invoke(a.Name, nil)
			}
		default:
			sim.RunFor(time.Duration(rng.Intn(1500)) * time.Millisecond)
		}
		checkAggregates(t, c, op)
		skips += checkRouting(t, c, op)
		for _, a := range c.actionList {
			if pick := c.pickInvoker(a); pick != nil && pick.slot < int(a.nameHash)%len(c.slots) {
				wraps++
			}
		}
	}
	if len(c.healthy) < 3 || skips == 0 || wraps == 0 {
		t.Fatalf("vacuous: %d bitmap words, %d picks past a saturated home and a freed or draining slot, %d wrapped picks",
			len(c.healthy), skips, wraps)
	}
}

// BenchmarkPickInvoker routes every action of a pilot-churning day's
// controller once per op: 100 actions over a high-water list of 110
// slots whose lowest 18 hold 13 healthy and 3 draining invokers and
// whose other slots are free, the shape of fib-day and week-stream
// (registration takes the lowest free slot, so the survivors of churn
// sit low and the tail is empty). Allocation-free.
func BenchmarkPickInvoker(b *testing.B) {
	sim := des.New()
	c := NewController(sim, bus.New[*Invocation](sim, nil, 1), DefaultControllerConfig(), 2)
	for i := 0; i < 100; i++ {
		c.RegisterAction(&Action{Name: fmt.Sprintf("fn-%d", i), MemoryMB: 256, Exec: FixedExec(time.Hour)})
	}
	ws := make([]*Invoker, 110)
	for i := range ws {
		ws[i] = NewInvoker(DefaultInvokerConfig(), int64(i))
		c.Register(ws[i])
	}
	// Hour-long executions keep the draining invokers from leaving.
	for _, a := range c.actionList {
		c.Invoke(a.Name, nil)
	}
	sim.RunFor(5 * time.Second)
	healthy, draining := 0, 0
	for i, w := range ws {
		switch {
		case i < 18 && len(w.running) > 0 && draining < 3:
			w.Sigterm(false, nil)
			draining++
		case i < 18 && healthy < 13:
			healthy++
		default:
			w.Kill()
		}
	}
	if c.HealthyCount() != 13 || c.DrainingCount() != 3 || len(c.slots) != 110 {
		b.Fatalf("rig has %d healthy and %d draining invokers in %d slots, want 13 and 3 in 110",
			c.HealthyCount(), c.DrainingCount(), len(c.slots))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range c.actionList {
			if c.pickInvoker(a) == nil {
				b.Fatal("no invoker picked")
			}
		}
	}
}
