package whisk

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/dist"
)

func newSystem(invokers int) (*des.Sim, *Controller, []*Invoker) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	c := NewController(sim, b, DefaultControllerConfig(), 2)
	ws := make([]*Invoker, invokers)
	for i := range ws {
		ws[i] = NewInvoker(DefaultInvokerConfig(), int64(100+i))
		c.Register(ws[i])
	}
	return sim, c, ws
}

func sleepAction(name string) *Action {
	return &Action{Name: name, MemoryMB: 256, Exec: FixedExec(10 * time.Millisecond), Interruptible: true}
}

func TestInvokeSuccess(t *testing.T) {
	sim, c, _ := newSystem(2)
	c.RegisterAction(sleepAction("f"))
	var got *Invocation
	c.Invoke("f", func(inv *Invocation) { got = inv })
	sim.RunUntil(10 * time.Second)
	if got == nil {
		t.Fatal("invocation never completed")
	}
	if got.Status != StatusSuccess && got.Status != StatusFailed {
		t.Fatalf("status = %v", got.Status)
	}
	if got.Status == StatusSuccess {
		lat := got.Latency()
		if lat < 300*time.Millisecond || lat > 3*time.Second {
			t.Errorf("latency = %v, want sub-3s with cold start", lat)
		}
		if !got.ColdStart {
			t.Error("first call should cold start")
		}
	}
}

func TestWarmCallsFaster(t *testing.T) {
	sim, c, _ := newSystem(1)
	cfg := DefaultInvokerConfig()
	_ = cfg
	c.RegisterAction(sleepAction("f"))
	var cold, warm *Invocation
	c.Invoke("f", func(inv *Invocation) { cold = inv })
	sim.RunUntil(5 * time.Second)
	c.Invoke("f", func(inv *Invocation) { warm = inv })
	sim.RunUntil(10 * time.Second)
	if cold == nil || warm == nil {
		t.Fatal("invocations incomplete")
	}
	if warm.ColdStart {
		t.Error("second call should reuse the warm container")
	}
	if warm.Latency() >= cold.Latency() {
		t.Errorf("warm latency %v not below cold %v", warm.Latency(), cold.Latency())
	}
}

func Test503WhenNoInvokers(t *testing.T) {
	sim, c, _ := newSystem(0)
	c.RegisterAction(sleepAction("f"))
	var got *Invocation
	c.Invoke("f", func(inv *Invocation) { got = inv })
	sim.RunUntil(time.Second)
	if got == nil || got.Status != Status503 {
		t.Fatalf("got %+v, want 503", got)
	}
	if c.N503 != 1 {
		t.Errorf("N503 = %d", c.N503)
	}
	// 503 must be fast (§III-E: immediately returned).
	if got.Latency() > 200*time.Millisecond {
		t.Errorf("503 latency = %v, want fast", got.Latency())
	}
}

func TestHashRoutingStable(t *testing.T) {
	sim, c, _ := newSystem(4)
	c.RegisterAction(sleepAction("stable-f"))
	invokersSeen := map[int]bool{}
	for i := 0; i < 10; i++ {
		c.Invoke("stable-f", func(inv *Invocation) { invokersSeen[inv.InvokerID] = true })
		sim.RunUntil(sim.Now() + 5*time.Second)
	}
	if len(invokersSeen) != 1 {
		t.Errorf("one action routed to %d invokers, want 1 (hash affinity)", len(invokersSeen))
	}
}

func TestManyActionsSpread(t *testing.T) {
	sim, c, _ := newSystem(8)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("f%d", i)
		c.RegisterAction(sleepAction(name))
		c.Invoke(name, func(inv *Invocation) { seen[inv.InvokerID] = true })
	}
	sim.RunUntil(30 * time.Second)
	if len(seen) < 6 {
		t.Errorf("100 actions hit only %d of 8 invokers", len(seen))
	}
}

func TestSigtermHandoffNoLoss(t *testing.T) {
	sim, c, ws := newSystem(2)
	// Long action so work is in flight during the hand-off.
	c.RegisterAction(&Action{Name: "slow", Exec: FixedExec(5 * time.Second), Interruptible: true})
	done := 0
	statuses := map[Status]int{}
	for i := 0; i < 12; i++ {
		c.Invoke("slow", func(inv *Invocation) {
			done++
			statuses[inv.Status]++
		})
	}
	sim.RunUntil(2 * time.Second)
	// SIGTERM the invoker that owns "slow".
	target := ws[0]
	if c.pickInvoker(c.action("slow")) == ws[1] {
		target = ws[1]
	}
	drained := false
	target.Sigterm(true, func() { drained = true })
	sim.RunUntil(5 * time.Minute)
	if !drained {
		t.Fatal("invoker never drained")
	}
	if done != 12 {
		t.Fatalf("completed %d of 12", done)
	}
	if statuses[StatusTimeout] > 0 {
		t.Errorf("hand-off lost work: %v", statuses)
	}
	if statuses[StatusSuccess]+statuses[StatusFailed] != 12 {
		t.Errorf("statuses = %v", statuses)
	}
	if target.State() != InvokerGone {
		t.Errorf("state = %v, want gone", target.State())
	}
}

func TestSigtermMovesBufferToFastLane(t *testing.T) {
	sim, c, ws := newSystem(1)
	c.RegisterAction(&Action{Name: "slow2", Exec: FixedExec(20 * time.Second), Interruptible: false})
	for i := 0; i < 40; i++ { // way beyond capacity 16
		c.Invoke("slow2", nil)
	}
	sim.RunUntil(3 * time.Second)
	w := ws[0]
	if w.Buffered() == 0 {
		t.Fatal("expected buffered work before hand-off")
	}
	w.Sigterm(false, nil)
	sim.RunUntil(4 * time.Second)
	if c.fastLane.Len() == 0 {
		t.Error("fast lane empty after hand-off")
	}
	if w.Buffered() != 0 {
		t.Error("buffer not flushed")
	}
}

func TestNonInterruptibleRunsToCompletion(t *testing.T) {
	sim, c, ws := newSystem(1)
	c.RegisterAction(&Action{Name: "atomic", Exec: FixedExec(10 * time.Second), Interruptible: false})
	var got *Invocation
	c.Invoke("atomic", func(inv *Invocation) { got = inv })
	sim.RunUntil(2 * time.Second)
	drainedAt := des.Time(0)
	ws[0].Sigterm(true, func() { drainedAt = sim.Now() })
	sim.RunUntil(time.Minute)
	if got == nil || got.Status != StatusSuccess {
		t.Fatalf("non-interruptible lost: %+v", got)
	}
	if got.Requeues != 0 {
		t.Errorf("requeues = %d, want 0", got.Requeues)
	}
	if drainedAt < 10*time.Second {
		t.Errorf("drained at %v, before the running call finished", drainedAt)
	}
}

func TestInterruptibleRequeuedElsewhere(t *testing.T) {
	sim, c, ws := newSystem(2)
	c.RegisterAction(&Action{Name: "longjob", Exec: FixedExec(8 * time.Second), Interruptible: true})
	var got *Invocation
	c.Invoke("longjob", func(inv *Invocation) { got = inv })
	sim.RunUntil(3 * time.Second)
	owner := ws[0]
	other := ws[1]
	if c.pickInvoker(c.action("longjob")) == ws[1] {
		owner, other = ws[1], ws[0]
	}
	owner.Sigterm(true, nil)
	sim.RunUntil(2 * time.Minute)
	if got == nil || got.Status != StatusSuccess {
		t.Fatalf("interrupted call lost: %+v", got)
	}
	if got.Requeues != 1 {
		t.Errorf("requeues = %d, want 1", got.Requeues)
	}
	if got.InvokerID != other.slot {
		t.Errorf("finished on invoker %d, want the surviving %d", got.InvokerID, other.slot)
	}
}

func TestKillLosesWork(t *testing.T) {
	sim, c, ws := newSystem(1)
	c.RegisterAction(&Action{Name: "doomed", Exec: FixedExec(30 * time.Second), Interruptible: true})
	statuses := map[Status]int{}
	for i := 0; i < 5; i++ {
		c.Invoke("doomed", func(inv *Invocation) { statuses[inv.Status]++ })
	}
	sim.RunUntil(2 * time.Second)
	ws[0].Kill()
	sim.RunUntil(5 * time.Minute)
	if statuses[StatusTimeout] == 0 {
		t.Errorf("kill without hand-off should lose work: %v", statuses)
	}
	if statuses[StatusSuccess] > 0 {
		t.Errorf("killed invoker produced successes: %v", statuses)
	}
}

func TestDrainingNotRoutedTo(t *testing.T) {
	sim, c, ws := newSystem(2)
	c.RegisterAction(sleepAction("g"))
	owner := c.pickInvoker(c.action("g"))
	owner.Sigterm(false, nil)
	var got *Invocation
	c.Invoke("g", func(inv *Invocation) { got = inv })
	sim.RunUntil(time.Minute)
	if got == nil || got.Status != StatusSuccess {
		t.Fatalf("invocation failed after drain: %+v", got)
	}
	surviving := ws[0]
	if owner == ws[0] {
		surviving = ws[1]
	}
	if got.InvokerID != surviving.slot {
		t.Errorf("routed to %d, want surviving invoker %d", got.InvokerID, surviving.slot)
	}
}

func TestReRegistrationReusesSlot(t *testing.T) {
	sim, c, ws := newSystem(3)
	ws[1].Sigterm(false, nil)
	sim.RunUntil(10 * time.Second)
	w := NewInvoker(DefaultInvokerConfig(), 999)
	slot := c.Register(w)
	if slot != 1 {
		t.Errorf("new invoker got slot %d, want reclaimed slot 1", slot)
	}
	if c.HealthyCount() != 3 {
		t.Errorf("healthy = %d, want 3", c.HealthyCount())
	}
}

func TestBufferOverflowRejects(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	c := NewController(sim, b, DefaultControllerConfig(), 2)
	cfg := DefaultInvokerConfig()
	cfg.Capacity = 1
	cfg.BufferLimit = 4
	cfg.PullBatch = 8
	w := NewInvoker(cfg, 7)
	c.Register(w)
	c.RegisterAction(&Action{Name: "h", Exec: FixedExec(30 * time.Second), Interruptible: true})
	statuses := map[Status]int{}
	for i := 0; i < 30; i++ {
		c.Invoke("h", func(inv *Invocation) { statuses[inv.Status]++ })
	}
	sim.RunUntil(90 * time.Second)
	if w.Rejected == 0 {
		t.Error("no rejections despite buffer overflow")
	}
	if statuses[StatusFailed] == 0 {
		t.Errorf("overflow should fail requests: %v", statuses)
	}
}

func TestEveryInvocationCompletesOnce(t *testing.T) {
	sim, c, ws := newSystem(3)
	for i := 0; i < 10; i++ {
		c.RegisterAction(&Action{
			Name:          fmt.Sprintf("p%d", i),
			Exec:          DistExec(dist.Uniform{Lo: 0.01, Hi: 2.0}),
			Interruptible: i%2 == 0,
		})
	}
	completions := map[int64]int{}
	total := 0
	tick := sim.Every(200*time.Millisecond, func() {
		name := fmt.Sprintf("p%d", total%10)
		c.Invoke(name, func(inv *Invocation) { completions[inv.ID]++ })
		total++
	})
	// Churn: terminate and replace invokers during the run.
	sim.Schedule(10*time.Second, func() { ws[0].Sigterm(true, nil) })
	sim.Schedule(20*time.Second, func() { ws[1].Kill() })
	sim.Schedule(30*time.Second, func() {
		c.Register(NewInvoker(DefaultInvokerConfig(), 555))
	})
	sim.RunUntil(45 * time.Second)
	tick.Stop()
	sim.RunUntil(sim.Now() + 3*time.Minute)
	if total == 0 {
		t.Fatal("no invocations issued")
	}
	if len(completions) != total {
		t.Fatalf("completed %d of %d", len(completions), total)
	}
	for id, n := range completions {
		if n != 1 {
			t.Fatalf("invocation %d completed %d times", id, n)
		}
	}
	if c.NSuccess+c.NFailed+c.NTimeout+c.N503 != total {
		t.Errorf("counter sum %d != total %d",
			c.NSuccess+c.NFailed+c.NTimeout+c.N503, total)
	}
}

func TestMedianLatencyCalibration(t *testing.T) {
	// §V-C: a 10 ms function should see a median response ≈0.8-0.9 s.
	sim, c, _ := newSystem(4)
	for i := 0; i < 20; i++ {
		c.RegisterAction(sleepAction(fmt.Sprintf("s%d", i)))
	}
	var lat []time.Duration
	n := 0
	tick := sim.Every(100*time.Millisecond, func() {
		c.Invoke(fmt.Sprintf("s%d", n%20), func(inv *Invocation) {
			if inv.Status == StatusSuccess && !inv.ColdStart {
				lat = append(lat, inv.Latency())
			}
		})
		n++
	})
	sim.RunUntil(2 * time.Minute)
	tick.Stop()
	sim.RunUntil(sim.Now() + time.Minute)
	if len(lat) < 200 {
		t.Fatalf("only %d warm successes", len(lat))
	}
	// Median of warm calls.
	med := medianDur(lat)
	if med < 500*time.Millisecond || med > 1300*time.Millisecond {
		t.Errorf("warm median latency = %v, want ≈0.8-0.9s", med)
	}
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
