package whisk

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
)

// pooledRig builds a pooled controller with one registered invoker and
// a 10 ms sleep action.
func pooledRig(t *testing.T) (*des.Sim, *Controller, *Invoker) {
	t.Helper()
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	cfg := DefaultControllerConfig()
	cfg.PoolInvocations = true
	c := NewController(sim, b, cfg, 2)
	c.RegisterAction(&Action{Name: "f", MemoryMB: 256, Exec: FixedExec(10 * time.Millisecond), Interruptible: true})
	w := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(w)
	return sim, c, w
}

// TestStaleInvocationHandleAfterRecycle pins the pooling contract: a
// pointer retained past the done callback goes stale once traffic
// continues — the same object is handed to a later invocation with a
// bumped generation — so holders must copy fields inside the callback
// (as every in-repo client does) or detect reuse via Generation.
func TestStaleInvocationHandleAfterRecycle(t *testing.T) {
	sim, c, _ := pooledRig(t)

	var stale *Invocation
	var staleGen uint32
	var firstID int64
	c.Invoke("f", func(inv *Invocation) {
		stale = inv
		staleGen = inv.Generation()
		firstID = inv.ID
	})
	sim.RunFor(time.Minute)
	if stale == nil {
		t.Fatal("first invocation never completed")
	}
	if len(c.invPool) != 1 {
		t.Fatalf("pool size = %d after completion, want 1", len(c.invPool))
	}

	fresh := c.invoke("f", nil)
	if fresh != stale {
		t.Fatalf("second invocation did not reuse the pooled object (%p vs %p)", fresh, stale)
	}
	if fresh.Generation() != staleGen+1 {
		t.Errorf("generation = %d, want %d", fresh.Generation(), staleGen+1)
	}
	if fresh.ID == firstID {
		t.Error("recycled invocation kept the old ID")
	}
	if fresh.Status != StatusPending || fresh.Completed != 0 || fresh.Requeues != 0 {
		t.Errorf("recycled invocation not reset: %+v", fresh)
	}
	sim.RunFor(time.Minute)
}

// TestTimeoutDuringExecutionDefersRecycle: when the client-visible
// timeout fires while the invoker is still executing, the done callback
// runs immediately but the object must stay out of the pool until the
// execution (and its result hop) release their references — otherwise
// the invoker would finish into a recycled object.
func TestTimeoutDuringExecutionDefersRecycle(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	cfg := DefaultControllerConfig()
	cfg.PoolInvocations = true
	cfg.ActionTimeout = 2 * time.Second // expire mid-execution
	c := NewController(sim, b, cfg, 2)
	c.RegisterAction(&Action{Name: "slow", MemoryMB: 256, Exec: FixedExec(30 * time.Second)})
	w := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(w)

	timedOut := false
	c.Invoke("slow", func(inv *Invocation) {
		timedOut = inv.Status == StatusTimeout
	})
	sim.RunFor(10 * time.Second) // past the timeout, mid-execution
	if !timedOut {
		t.Fatal("invocation should have timed out")
	}
	if len(c.invPool) != 0 {
		t.Fatal("invocation recycled while the invoker still executes it")
	}
	if len(w.running) != 1 {
		t.Fatalf("running = %d, want 1", len(w.running))
	}
	sim.RunFor(time.Minute) // execution drains, last reference drops
	if len(c.invPool) != 1 {
		t.Errorf("pool size = %d after execution drained, want 1", len(c.invPool))
	}
}

// TestKillRecyclesBufferedMessagesButNotRottingOnes: a hard kill drops
// the invoker's buffered messages (their invocations later surface as
// timeouts and recycle), while messages still rotting on the dead
// topic keep their invocations out of the pool — recycling them would
// hand a referenced object to a new request.
func TestKillRecyclesRotInvocationsOnlyAfterTimeout(t *testing.T) {
	sim, c, w := pooledRig(t)
	for i := 0; i < 10; i++ {
		c.Invoke("f", nil)
	}
	sim.RunFor(900 * time.Millisecond) // routed/published; some buffered, some queued
	w.Kill()
	sim.RunFor(30 * time.Second)
	if got := c.NSuccess + c.NFailed + c.NTimeout + c.N503; got == 10 {
		t.Skip("everything completed before the kill; nothing rots")
	}
	if len(c.invPool) == 10 {
		t.Fatal("rotting invocations recycled before their timeouts resolved")
	}
	sim.RunFor(2 * time.Minute) // past the action timeout
	if got := c.NSuccess + c.NFailed + c.NTimeout + c.N503; got != 10 {
		t.Fatalf("completions = %d, want 10", got)
	}
}

// TestDeregisterKeepsSlotListLength pins the slot list's one length:
// deregistrations free slots but never shrink the list, so len(slots)
// stays the high-water count that home-invoker routing hashes over,
// and Register refills the lowest free slot before the list grows.
func TestDeregisterKeepsSlotListLength(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	c := NewController(sim, b, DefaultControllerConfig(), 2)

	mk := func() *Invoker { return NewInvoker(DefaultInvokerConfig(), 7) }
	var ws []*Invoker
	for i := 0; i < 8; i++ {
		w := mk()
		if got := c.Register(w); got != i {
			t.Fatalf("register %d got slot %d", i, got)
		}
		ws = append(ws, w)
	}
	// Tail and middle deregistrations keep the high-water length.
	for _, i := range []int{7, 6, 5, 4, 3, 1} {
		c.Deregister(ws[i])
		if len(c.slots) != 8 {
			t.Fatalf("after deregistering slot %d: len(slots) = %d, want the high-water 8", i, len(c.slots))
		}
		if c.slots[i] != nil {
			t.Fatalf("slot %d still occupied after deregistering", i)
		}
	}
	// The freed middle slot is reused first.
	w := mk()
	if got := c.Register(w); got != 1 {
		t.Errorf("register into hole got slot %d, want 1", got)
	}
	c.Deregister(ws[0])
	c.Deregister(ws[2])
	c.Deregister(w)
	if len(c.slots) != 8 {
		t.Errorf("len(slots) = %d after full churn, want the high-water 8", len(c.slots))
	}
	if c.HealthyCount() != 0 {
		t.Errorf("healthy = %d, want 0", c.HealthyCount())
	}
	// Routing still works after the churn: a fresh register takes slot
	// 0 and receives traffic.
	c.RegisterAction(&Action{Name: "g", MemoryMB: 128, Exec: FixedExec(time.Millisecond)})
	w2 := mk()
	if got := c.Register(w2); got != 0 {
		t.Fatalf("post-churn register got slot %d, want 0", got)
	}
	doneStatus := StatusPending
	c.Invoke("g", func(inv *Invocation) { doneStatus = inv.Status })
	sim.RunFor(time.Minute)
	if doneStatus != StatusSuccess {
		t.Errorf("post-churn invocation status = %v, want success", doneStatus)
	}
}

// TestPooledRequestPathSteadyStateAllocs pins the tentpole: once pools
// are warm, a full invoke→route→publish→pull→execute→result→egress
// round trip performs (near) zero heap allocations.
func TestPooledRequestPathSteadyStateAllocs(t *testing.T) {
	sim, c, _ := pooledRig(t)
	run := func() {
		c.Invoke("f", nil)
		sim.RunFor(5 * time.Second)
	}
	for i := 0; i < 3; i++ {
		run() // warm the invocation and des pools and the topic queues
	}
	allocs := testing.AllocsPerRun(200, run)
	// The des heap and slot pool may still grow once while settling;
	// anything above a stray object per run means a pool is bypassed.
	if allocs > 1 {
		t.Errorf("steady-state request path allocates %.2f objects/op, want ≤1", allocs)
	}
}

func TestUnpooledControllerNeverRecycles(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	c := NewController(sim, b, DefaultControllerConfig(), 2) // pooling off
	c.RegisterAction(&Action{Name: "f", MemoryMB: 256, Exec: FixedExec(time.Millisecond)})
	w := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(w)
	first := c.invoke("f", nil)
	sim.RunFor(time.Minute)
	second := c.invoke("f", nil)
	sim.RunFor(time.Minute)
	if first == second {
		t.Error("unpooled controller reused an invocation object")
	}
	if len(c.invPool) != 0 {
		t.Errorf("unpooled controller filled its pool: %d", len(c.invPool))
	}
	// Retained handles stay valid forever without pooling.
	if first.Status != StatusSuccess || first.Generation() != 0 {
		t.Errorf("retained unpooled invocation mutated: %+v", first)
	}
}

// TestInterruptOfTimedOutExecution is the regression test for the
// Sigterm interrupt loop recycling a completed invocation mid-loop: an
// interruptible execution that outlived the client timeout holds only
// the exec-event and running-list references, so the interrupt must
// retain for the fast-lane message before dropping them — otherwise
// the object recycles under the loop's feet (nil Action dereference)
// and, worse, a pooled object would be requeued while sitting in the
// free list.
func TestInterruptOfTimedOutExecution(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		sim := des.New()
		b := bus.New[*Invocation](sim, nil, 1)
		cfg := DefaultControllerConfig()
		cfg.PoolInvocations = pooled
		cfg.ActionTimeout = 2 * time.Second
		c := NewController(sim, b, cfg, 2)
		c.RegisterAction(&Action{Name: "slow", MemoryMB: 256, Exec: FixedExec(30 * time.Second), Interruptible: true})
		w := NewInvoker(DefaultInvokerConfig(), 3)
		c.Register(w)

		timedOut := false
		c.Invoke("slow", func(inv *Invocation) { timedOut = inv.Status == StatusTimeout })
		sim.RunFor(10 * time.Second) // past the timeout, mid-execution
		if !timedOut {
			t.Fatalf("pooled=%v: invocation should have timed out", pooled)
		}
		w.Sigterm(true, nil) // must not panic nor recycle mid-loop
		if got := c.fastLane.Len(); got != 1 {
			t.Fatalf("pooled=%v: fast lane holds %d messages, want the interrupted one", pooled, got)
		}
		if pooled && len(c.invPool) != 0 {
			t.Fatalf("pooled=%v: invocation recycled while its message sits in the fast lane", pooled)
		}
		// A successor invoker drains the fast lane; dispatch skips the
		// completed invocation and the last reference recycles it.
		c.Register(NewInvoker(DefaultInvokerConfig(), 4))
		sim.RunFor(time.Minute)
		if c.fastLane.Len() != 0 {
			t.Errorf("pooled=%v: fast lane not drained", pooled)
		}
		if pooled && len(c.invPool) != 1 {
			t.Errorf("pooled=%v: pool size = %d after drain, want 1", pooled, len(c.invPool))
		}
	}
}
