package whisk

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/dist"
)

// TestDrainSparesSlotsNewOwner: an invoker that drains at once leaves
// its slot before the controller acts on its SIGTERM, statusLatency
// later. If another invoker has taken the slot by then, the slot's
// topic is the new owner's, and the drain callback must leave its
// messages alone. The new owner pulls one message per poll, fast lane
// first, so its own topic still holds messages when the callback fires.
func TestDrainSparesSlotsNewOwner(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	cfg := DefaultControllerConfig()
	cfg.OverheadSeconds = dist.Constant{Value: 0.1}
	c := NewController(sim, b, cfg, 2)
	c.RegisterAction(&Action{Name: "work", Exec: FixedExec(time.Second), Interruptible: true})
	a := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(a)
	for i := 0; i < 20; i++ {
		c.Invoke("work", nil)
	}
	sim.RunUntil(time.Second)
	// Every call is running or buffered on a; the interrupting SIGTERM
	// hands all of them to the fast lane and a deregisters at once.
	a.Sigterm(true, nil)
	if a.State() != InvokerGone || c.FastLaneDepth() != 20 {
		t.Fatalf("after a's SIGTERM: state %v, fast lane %d; want gone and 20", a.State(), c.FastLaneDepth())
	}
	ncfg := DefaultInvokerConfig()
	ncfg.PullBatch = 1
	owner := NewInvoker(ncfg, 4)
	if slot := c.Register(owner); slot != 0 {
		t.Fatalf("new invoker took slot %d, want a's slot 0", slot)
	}
	for i := 0; i < 5; i++ {
		c.Invoke("work", nil) // lands on the owner's topic by 1.2 s
	}
	drainAt := time.Second + statusLatency
	sim.RunUntil(drainAt - 1)
	held, moved := owner.topic.Len(), b.Moved
	if held == 0 {
		t.Fatal("the owner's topic is empty when the drain callback fires; the check would be vacuous")
	}
	sim.RunUntil(drainAt)
	if b.Moved != moved || owner.topic.Len() != held {
		t.Fatalf("drain callback moved %d of the %d messages on the new owner's topic", b.Moved-moved, held)
	}
	sim.RunFor(time.Minute)
	if c.NTimeout != 0 || c.NSuccess+c.NFailed != 25 {
		t.Fatalf("completed %d (%d timeouts) of 25", c.NSuccess+c.NFailed+c.NTimeout, c.NTimeout)
	}
}

// TestDrainRescuesLateMessageOnEmptySlot: a message routed to an invoker
// before its SIGTERM can land on the invoker's topic after it
// deregistered. While the slot stays empty no invoker pulls that topic,
// so only the drain callback's move to the fast lane gets the message
// to a live invoker before the client times out.
func TestDrainRescuesLateMessageOnEmptySlot(t *testing.T) {
	const ms = time.Millisecond
	sim := des.New()
	cfg := DefaultControllerConfig()
	cfg.OverheadSeconds = dist.Constant{Value: 0.1} // publish 100 ms after routing
	c := NewController(sim, bus.New[*Invocation](sim, nil, 1), cfg, 2)
	c.RegisterAction(sleepAction("f"))
	a := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(a)
	inv := c.invoke("f", nil)
	sim.RunUntil(60 * ms)
	if inv.routeTopic != a.topic {
		t.Fatal("the call was not routed to a by 60 ms")
	}
	ccfg := DefaultInvokerConfig()
	ccfg.FailureProb = 0
	late := NewInvoker(ccfg, 4)
	if slot := c.Register(late); slot != 1 {
		t.Fatalf("second invoker took slot %d, want 1", slot)
	}
	sim.RunUntil(70 * ms)
	a.Sigterm(false, nil) // nothing on board: a deregisters at once
	if a.State() != InvokerGone {
		t.Fatalf("a is %v after its SIGTERM, want gone", a.State())
	}
	sim.RunUntil(70*ms + statusLatency - 1)
	if a.topic.Len() != 1 {
		t.Fatalf("a's topic holds %d messages before the drain callback, want the late one", a.topic.Len())
	}
	sim.RunUntil(2 * time.Second)
	if inv.Status != StatusSuccess || inv.Completed == 0 || inv.InvokerID != late.slot {
		t.Fatalf("call ended %v at %v on slot %d; want success on slot %d by 2 s",
			inv.Status, inv.Completed, inv.InvokerID, late.slot)
	}
}

// TestSlotsNextOwnerPullsItsTopic: a slot's topic outlives its invoker.
// A call routed to a lands on slot 0's topic after a deregistered and b
// took the slot. The drain callback spares the slot (b owns it), so
// only b pulling the same topic gets the call executed before the
// client times out.
func TestSlotsNextOwnerPullsItsTopic(t *testing.T) {
	const ms = time.Millisecond
	sim := des.New()
	cfg := DefaultControllerConfig()
	cfg.OverheadSeconds = dist.Constant{Value: 0.1} // publish 100 ms after routing
	c := NewController(sim, bus.New[*Invocation](sim, nil, 1), cfg, 2)
	c.RegisterAction(sleepAction("f"))
	a := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(a)
	inv := c.invoke("f", nil)
	sim.RunUntil(60 * ms)
	if inv.routeTopic != a.topic {
		t.Fatal("the call was not routed to a by 60 ms")
	}
	a.Sigterm(false, nil) // nothing on board: a deregisters at once
	if a.State() != InvokerGone {
		t.Fatalf("a is %v after its SIGTERM, want gone", a.State())
	}
	bcfg := DefaultInvokerConfig()
	bcfg.FailureProb = 0
	b := NewInvoker(bcfg, 4)
	if slot := c.Register(b); slot != 0 {
		t.Fatalf("b took slot %d, want a's slot 0", slot)
	}
	if inv.routeTopic != a.topic {
		t.Fatal("the call was published before b took the slot; the check would be vacuous")
	}
	sim.RunUntil(2 * time.Second)
	if inv.Status != StatusSuccess || inv.Completed == 0 || inv.InvokerID != b.slot || c.NTimeout != 0 {
		t.Fatalf("call ended %v at %v on slot %d (%d timeouts); want success on b's slot %d by 2 s",
			inv.Status, inv.Completed, inv.InvokerID, c.NTimeout, b.slot)
	}
}
