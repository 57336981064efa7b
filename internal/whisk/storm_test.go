package whisk

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bus"
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
// exercised.
func stormLog(t *testing.T, pooled bool, seed int64) []string {
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
		})
	}

	var log []string
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
			c.Invoke(actions[rng.Intn(len(actions))], logDone)
			sim.RunFor(time.Duration(rng.Intn(200)) * time.Millisecond)
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
	return log
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
			plain := stormLog(t, false, seed)
			pooled := stormLog(t, true, seed)
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
