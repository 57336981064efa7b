package whisk

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/dist"
)

// stormLog runs a randomized register/drain/kill/invoke storm through
// the request path and returns the completion log: one line per
// finished invocation with every client-observable field. The storm
// mixes interruptible and atomic actions, graceful drains (with and
// without mid-execution interruption), hard kills, and random clock
// advances, so every pooling-sensitive path — publish, timeout,
// fast-lane requeue, reject-under-pressure, rot-after-kill — gets
// exercised. After every op the storm hands each invoker that has gone
// back to the controller at once, its drain hop pending or not, and
// registrations take invokers from the controller. With fresh set, the
// controller then forgets the invokers handed back, so every
// registration builds a new one. It also returns how many registrations
// took a released invoker, and how many invokers were released while
// their drain hop was pending.
func stormLog(t *testing.T, seed int64, pooled, fresh bool) (log []string, reused, early int) {
	t.Helper()
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, seed+1)
	cfg := DefaultControllerConfig()
	cfg.PoolInvocations = pooled
	// Short enough that the Uniform(0.01, 2.0)s executions regularly
	// outlive the client timeout, so the storm reaches the
	// timeout-while-executing states (and their drain/kill interrupts),
	// not just clean completions.
	cfg.ActionTimeout = 1500 * time.Millisecond
	c := NewController(sim, b, cfg, seed+2)

	actions := make([]string, 8)
	for i := range actions {
		actions[i] = fmt.Sprintf("storm-%d", i)
		c.RegisterAction(&Action{
			Name:          actions[i],
			MemoryMB:      256,
			Exec:          DistExec(dist.Uniform{Lo: 0.01, Hi: 2.0}),
			Interruptible: i%2 == 0,
			Checkpoint:    stormCheckpoint(i),
		})
	}

	logDone := func(inv *Invocation) {
		log = append(log, fmt.Sprintf("%d %s %v sub=%v rt=%v ex=%v cp=%v rq=%d inv=%d cold=%v",
			inv.ID, inv.Action.Name, inv.Status, inv.Submitted, inv.Routed,
			inv.Executed, inv.Completed, inv.Requeues, inv.InvokerID, inv.ColdStart))
	}

	rng := dist.NewRand(seed + 3)
	icfg := DefaultInvokerConfig()
	icfg.BufferLimit = 8 // small enough that pressure rejects happen
	icfg.PullBatch = 4
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

	for op := 0; op < 2500; op++ {
		switch rng.Intn(12) {
		case 0: // register an invoker, a released one when one is spare
			if len(c.spare) > 0 {
				reused++
			}
			w := c.NewInvoker(icfg, rng.Int63())
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
			c.Invoke(actions[rng.Intn(len(actions))], logDone)
			sim.RunFor(time.Duration(rng.Intn(200)) * time.Millisecond)
		}
		invokers = slices.DeleteFunc(invokers, func(w *Invoker) bool {
			if w.State() != InvokerGone {
				return false
			}
			if w.drainEv.Pending() {
				early++
			}
			c.Release(w)
			return true
		})
		if fresh {
			c.spare = nil
		}
	}
	// Drain: past the action timeout so even rotting messages resolve.
	sim.RunFor(cfg.ActionTimeout + 5*time.Minute)

	if pooled && len(c.invPool) == 0 {
		t.Fatal("pooled storm never recycled an invocation — the comparison would be vacuous")
	}
	if c.Total != c.NSuccess+c.NFailed+c.NTimeout+c.N503 {
		t.Fatalf("storm leaked invocations: total=%d completed=%d",
			c.Total, c.NSuccess+c.NFailed+c.NTimeout+c.N503)
	}
	return log, reused, early
}

// TestStormPooledMatchesUnpooledEventLog is the property test pinning
// the pooled request path to the allocating one: the same seeded storm
// replayed with pooling off (every invocation heap-fresh, the
// pre-refactor lifetime discipline) and with pooling on must produce
// identical completion logs, line for line. Any refcount slip — an
// invocation recycled while a topic or buffer, a pending hop, or an
// executing invoker still referenced it — would surface as a diverging
// or panicking pooled run.
func TestStormPooledMatchesUnpooledEventLog(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plain, _, _ := stormLog(t, seed, false, false)
			pooled, _, _ := stormLog(t, seed, true, false)
			if len(plain) == 0 {
				t.Fatal("storm produced no completions")
			}
			if len(plain) != len(pooled) {
				t.Fatalf("completion counts diverged: %d unpooled vs %d pooled", len(plain), len(pooled))
			}
			for i := range plain {
				if plain[i] != pooled[i] {
					t.Fatalf("event %d diverged:\nunpooled: %s\npooled:   %s", i, plain[i], pooled[i])
				}
			}
		})
	}
}

// TestStormRecycledMatchesFresh pins the reuse of released invokers
// to building them fresh: the same seeded storm, with the controller's
// free list as it is and with it emptied after every op, must produce
// identical completion logs, line for line. An invoker reused while
// something still refers to it — its drain hop pending, a call routed
// to it on the way to its old topic, or that topic still calling its
// poll — acts for two lives at once, and the logs diverge.
func TestStormRecycledMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fresh, none, _ := stormLog(t, seed, true, true)
			recycled, reused, early := stormLog(t, seed, true, false)
			if reused == 0 || none != 0 || early == 0 {
				t.Fatalf("registrations took %d released invokers with hand-back and %d without, %d released with their drain hop pending — the comparison would be vacuous",
					reused, none, early)
			}
			if len(fresh) != len(recycled) {
				t.Fatalf("completion counts diverged: %d fresh vs %d recycled", len(fresh), len(recycled))
			}
			for i := range fresh {
				if fresh[i] != recycled[i] {
					t.Fatalf("event %d diverged:\nfresh:    %s\nrecycled: %s", i, fresh[i], recycled[i])
				}
			}
		})
	}
}

// stormCheckpoint checkpoints every fourth storm action, at 300 ms:
// their executions fork the invoker's checkpoint stream, dump and
// resume across drains.
func stormCheckpoint(i int) *checkpoint.Model {
	if i%4 != 0 {
		return nil
	}
	return checkpoint.WithInterval(300 * time.Millisecond)
}

// BenchmarkPilotChurn is one pilot's life on a pooled controller with
// 100 actions deployed: boot an invoker, register it, serve one call,
// SIGTERM it, drain it and hand it back. Each invoker goes back to the
// controller once it has gone, and the next boot reuses it with its
// streams, container pool and slices, so the steady state allocates
// nothing.
func BenchmarkPilotChurn(b *testing.B) {
	sim := des.New()
	cfg := DefaultControllerConfig()
	cfg.PoolInvocations = true
	c := NewController(sim, bus.New[*Invocation](sim, nil, 1), cfg, 2)
	actions := make([]string, 100)
	for i := range actions {
		actions[i] = fmt.Sprintf("churn-%d", i)
		c.RegisterAction(&Action{Name: actions[i], MemoryMB: 256, Exec: FixedExec(10 * time.Millisecond)})
	}
	churn := func(i int) {
		w := c.NewInvoker(DefaultInvokerConfig(), int64(i))
		c.Register(w)
		c.Invoke(actions[i%len(actions)], nil)
		sim.RunFor(5 * time.Second)
		w.Sigterm(false, nil)
		sim.RunFor(time.Second) // past the controller's drain hop
		if w.State() != InvokerGone {
			b.Fatalf("pilot %d did not drain", i)
		}
		c.Release(w)
	}
	for i := range 2 * len(actions) { // every action's container set, the des and invocation pools
		churn(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
	b.StopTimer()
	if want := b.N + 2*len(actions); c.NSuccess+c.NFailed != want {
		b.Fatalf("completed %d of %d invocations", c.NSuccess+c.NFailed, want)
	}
}
