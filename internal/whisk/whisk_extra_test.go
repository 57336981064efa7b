package whisk

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
)

// TestLRUEvictionUnderManyActions: with more actions than pool slots,
// idle containers of cold actions get evicted and re-cold-started.
func TestLRUEvictionUnderManyActions(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	c := NewController(sim, b, DefaultControllerConfig(), 2)
	cfg := DefaultInvokerConfig()
	cfg.PoolLimit = 4
	cfg.Capacity = 4
	w := NewInvoker(cfg, 7)
	c.Register(w)
	for i := 0; i < 12; i++ {
		c.RegisterAction(sleepAction(fmt.Sprintf("lru%d", i)))
	}
	// Two rounds over 12 actions with a 4-container pool: every call
	// cold starts.
	for round := 0; round < 2; round++ {
		for i := 0; i < 12; i++ {
			c.Invoke(fmt.Sprintf("lru%d", i), nil)
			sim.RunFor(5 * time.Second)
		}
	}
	sim.RunFor(time.Minute)
	if w.WarmStarts > 2 {
		t.Errorf("warm starts = %d with a thrashing pool, want ≈0", w.WarmStarts)
	}
	if w.ColdStarts < 20 {
		t.Errorf("cold starts = %d, want ≈24", w.ColdStarts)
	}
	if w.containers > cfg.PoolLimit {
		t.Errorf("containers = %d above pool limit %d", w.containers, cfg.PoolLimit)
	}
}

// TestWarmReuseKeepsPoolStable: a single hot action stays warm.
func TestWarmReuseKeepsPoolStable(t *testing.T) {
	sim, c, ws := newSystem(1)
	c.RegisterAction(sleepAction("hot"))
	for i := 0; i < 20; i++ {
		c.Invoke("hot", nil)
		sim.RunFor(5 * time.Second)
	}
	sim.RunFor(time.Minute)
	w := ws[0]
	if w.ColdStarts != 1 {
		t.Errorf("cold starts = %d, want exactly 1", w.ColdStarts)
	}
	if w.WarmStarts != 19 {
		t.Errorf("warm starts = %d, want 19", w.WarmStarts)
	}
}

// TestDrainingInvokerStopsPolling: after SIGTERM, fast-lane messages
// stay for the survivors.
func TestDrainingInvokerStopsPolling(t *testing.T) {
	sim, c, ws := newSystem(2)
	c.RegisterAction(&Action{Name: "d", Exec: FixedExec(30 * time.Second), Interruptible: false})
	// Occupy the non-owner so we know who should pull the fast lane.
	owner := c.pickInvoker(c.action("d"))
	other := ws[0]
	if owner == ws[0] {
		other = ws[1]
	}
	c.Invoke("d", nil)
	sim.RunFor(2 * time.Second)
	owner.Sigterm(false, nil)
	// The running non-interruptible call keeps the owner draining.
	if owner.State() != InvokerDraining {
		t.Fatalf("owner state = %v", owner.State())
	}
	// Messages pushed to the fast lane are pulled by the survivor, not
	// the draining owner.
	var got *Invocation
	c.Invoke("d", func(inv *Invocation) { got = inv })
	sim.RunUntil(sim.Now() + 2*time.Minute)
	if got == nil || got.Status != StatusSuccess {
		t.Fatalf("second call lost: %+v", got)
	}
	if got.InvokerID != other.slot {
		t.Errorf("second call ran on slot %d, want the survivor's slot %d", got.InvokerID, other.slot)
	}
}

// TestRequeueCountsHops: interrupted work records its fast-lane hops.
func TestRequeueCountsHops(t *testing.T) {
	sim, c, ws := newSystem(2)
	c.RegisterAction(&Action{Name: "hop", Exec: FixedExec(20 * time.Second), Interruptible: true})
	var got *Invocation
	c.Invoke("hop", func(inv *Invocation) { got = inv })
	sim.RunFor(3 * time.Second)
	owner := c.pickInvoker(c.action("hop"))
	owner.Sigterm(true, nil)
	sim.RunFor(2 * time.Second)
	// Interrupt the second executor too.
	for _, w := range ws {
		if w.State() == InvokerHealthy && len(w.running) > 0 {
			w.Sigterm(true, nil)
		}
	}
	// No healthy invoker remains; register a fresh one to finish.
	c.Register(NewInvoker(DefaultInvokerConfig(), 99))
	sim.RunUntil(sim.Now() + 3*time.Minute)
	if got == nil {
		t.Fatal("invocation never completed")
	}
	if got.Status != StatusSuccess {
		t.Fatalf("status = %v", got.Status)
	}
	if got.Requeues < 2 {
		t.Errorf("requeues = %d, want ≥2 hops", got.Requeues)
	}
}

// TestControllerCountersConsistent after mixed outcomes.
func TestControllerCountersConsistent(t *testing.T) {
	sim, c, ws := newSystem(1)
	c.RegisterAction(sleepAction("k"))
	total := 40
	for i := 0; i < total; i++ {
		c.Invoke("k", nil)
		sim.RunFor(time.Second)
	}
	sim.Schedule(sim.Now()+time.Second, func() { ws[0].Kill() })
	for i := 0; i < total; i++ {
		c.Invoke("k", nil)
		sim.RunFor(time.Second)
	}
	sim.RunUntil(sim.Now() + 3*time.Minute)
	sum := c.NSuccess + c.NFailed + c.NTimeout + c.N503
	if sum != 2*total {
		t.Errorf("counter sum = %d, want %d", sum, 2*total)
	}
	if c.N503 == 0 {
		t.Error("expected 503s after the only invoker died")
	}
}

// TestInvocationLatencyFields: timestamps are ordered.
func TestInvocationLatencyFields(t *testing.T) {
	sim, c, _ := newSystem(1)
	c.RegisterAction(sleepAction("ts"))
	var got *Invocation
	c.Invoke("ts", func(inv *Invocation) { got = inv })
	sim.RunUntil(time.Minute)
	if got == nil {
		t.Fatal("no completion")
	}
	if !(got.Submitted <= got.Routed && got.Routed <= got.Completed) {
		t.Errorf("timestamps out of order: %v / %v / %v",
			got.Submitted, got.Routed, got.Completed)
	}
	if got.Latency() <= 0 {
		t.Error("non-positive latency")
	}
}

// TestStatusStrings covers the Stringers.
func TestStatusStrings(t *testing.T) {
	want := map[fmt.Stringer]string{
		StatusPending:   "pending",
		StatusSuccess:   "success",
		StatusFailed:    "failed",
		StatusTimeout:   "timeout",
		Status503:       "503",
		InvokerHealthy:  "healthy",
		InvokerDraining: "draining",
		InvokerGone:     "gone",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%v.String() = %q, want %q", v, v.String(), s)
		}
	}
	if Status(99).String() != "unknown" || InvokerState(99).String() != "unknown" {
		t.Error("unknown values should render as unknown")
	}
}

// TestDoubleSigtermIsNoop: a second SIGTERM does not restart the drain.
func TestDoubleSigtermIsNoop(t *testing.T) {
	sim, c, ws := newSystem(1)
	c.RegisterAction(sleepAction("x"))
	drains := 0
	ws[0].Sigterm(false, func() { drains++ })
	ws[0].Sigterm(false, func() { drains++ })
	sim.RunUntil(time.Minute)
	if drains != 1 {
		t.Errorf("drain callbacks = %d, want 1", drains)
	}
}

// TestDuplicateActionPanics.
func TestDuplicateActionPanics(t *testing.T) {
	_, c, _ := newSystem(1)
	c.RegisterAction(sleepAction("dup"))
	defer func() {
		if recover() == nil {
			t.Error("duplicate action should panic")
		}
	}()
	c.RegisterAction(sleepAction("dup"))
}

// TestUnknownActionPanics.
func TestUnknownActionPanics(t *testing.T) {
	_, c, _ := newSystem(1)
	defer func() {
		if recover() == nil {
			t.Error("unknown action should panic")
		}
	}()
	c.Invoke("ghost", nil)
}

// TestOverflowSpillsToOtherInvoker: when the home invoker saturates,
// the controller load-balances to a less-loaded one (§II).
func TestOverflowSpillsToOtherInvoker(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	c := NewController(sim, b, DefaultControllerConfig(), 2)
	cfg := DefaultInvokerConfig()
	cfg.Capacity = 1
	cfg.BufferLimit = 6
	w0 := NewInvoker(cfg, 7)
	w1 := NewInvoker(cfg, 8)
	c.Register(w0)
	c.Register(w1)
	c.RegisterAction(&Action{Name: "spill", Exec: FixedExec(30 * time.Second), Interruptible: true})
	seen := map[int]bool{}
	for i := 0; i < 12; i++ {
		c.Invoke("spill", func(inv *Invocation) {
			if inv.Status == StatusSuccess {
				seen[inv.InvokerID] = true
			}
		})
		sim.RunFor(500 * time.Millisecond)
	}
	sim.RunUntil(sim.Now() + 10*time.Minute)
	if len(seen) != 2 {
		t.Errorf("successes landed on %d invokers, want spill to both", len(seen))
	}
}
