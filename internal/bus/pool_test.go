package bus

import (
	"testing"
	"time"

	"repro/internal/dist"
)

func TestPublishToSkipsLookup(t *testing.T) {
	sim, b := newBus()
	topic := b.Topic("direct")
	m := b.PublishTo(topic, 42)
	if m.topic != topic {
		t.Fatalf("publish-to captured topic %p, want %p", m.topic, topic)
	}
	sim.Run()
	if topic.Len() != 1 || b.Published != 1 {
		t.Errorf("len=%d published=%d, want 1/1", topic.Len(), b.Published)
	}
}

func TestRecycleReusesAndBumpsGeneration(t *testing.T) {
	sim, b := newBus()
	publish(b, "t", "first")
	sim.Run()
	m := pull(b.Topic("t"), 1)[0]
	gen := m.Generation()
	b.Recycle(m)
	if m.topic != nil || m.Payload != nil {
		t.Errorf("recycled message not reset: %+v", m)
	}

	// The next publish must reuse the pooled object with a bumped
	// generation.
	m2 := publish(b, "t", "second")
	if m2 != m {
		t.Fatalf("publish did not reuse the recycled message (%p vs %p)", m2, m)
	}
	if m2.Generation() != gen+1 {
		t.Errorf("generation = %d, want %d", m2.Generation(), gen+1)
	}
	sim.Run()
	got := pull(b.Topic("t"), 1)
	if len(got) != 1 || got[0].Payload != "second" {
		t.Fatalf("pull after recycle = %v", got)
	}
}

// TestPullOfRecycledMessage covers the stale-handle shape from the
// invoker's perspective: a consumer that held a *Message across a
// recycle observes the reuse through Generation rather than pulling a
// phantom copy — the queue never yields the same slot twice without an
// intervening publish.
func TestPullOfRecycledMessage(t *testing.T) {
	sim, b := newBus()
	publish(b, "t", "a")
	sim.Run()
	stale := pull(b.Topic("t"), 1)[0]
	b.Recycle(stale)

	if got := pull(b.Topic("t"), 1); got != nil {
		t.Fatalf("empty topic yielded %v after recycle", got)
	}
	reused := publish(b, "t", "b")
	sim.Run()
	got := pull(b.Topic("t"), 1)
	if len(got) != 1 || got[0] != reused {
		t.Fatalf("pull = %v, want the reused message", got)
	}
	if stale.Generation() == 0 {
		t.Error("stale handle should observe a bumped generation")
	}
}

func TestDoubleRecyclePanics(t *testing.T) {
	sim, b := newBus()
	publish(b, "t", 1)
	sim.Run()
	m := pull(b.Topic("t"), 1)[0]
	b.Recycle(m)
	defer func() {
		if recover() == nil {
			t.Error("double recycle should panic")
		}
	}()
	b.Recycle(m)
}

func TestWrapTakesFromPoolWithoutPublishBookkeeping(t *testing.T) {
	_, b := newBus()
	m := b.Wrap("payload")
	if m.topic != nil || b.Published != 0 {
		t.Errorf("wrap must not capture a topic or count a publish: %+v published=%d", m, b.Published)
	}
	fl := b.Topic("fl")
	fl.Requeue([]*Message{m})
	if fl.Len() != 1 || m.topic != fl {
		t.Errorf("requeue of wrapped message: len=%d topic=%p, want 1/%p", fl.Len(), m.topic, fl)
	}
}

func TestPullAppendReusesDst(t *testing.T) {
	sim, b := newBus()
	for i := 0; i < 5; i++ {
		publish(b, "t", i)
	}
	sim.Run()
	buf := make([]*Message, 0, 8)
	buf = b.Topic("t").PullAppend(buf, 2)
	if len(buf) != 2 || buf[0].Payload != 0 || buf[1].Payload != 1 {
		t.Fatalf("first pull-append = %v", buf)
	}
	buf = b.Topic("t").PullAppend(buf, 10)
	if len(buf) != 5 || buf[4].Payload != 4 {
		t.Fatalf("second pull-append = %v", buf)
	}
	if got := b.Topic("t").PullAppend(buf, 3); len(got) != 5 || b.Topic("t").Len() != 0 {
		t.Errorf("pull-append from a drained topic: %d messages, len %d; want 5, 0", len(got), b.Topic("t").Len())
	}
}

// TestSteadyStatePublishIsAllocationFree pins the pooling contract:
// once the pool is warm, a publish→deliver→pull→recycle cycle performs
// zero heap allocations.
func TestSteadyStatePublishIsAllocationFree(t *testing.T) {
	sim, b := newBus()
	buf := make([]*Message, 0, 4)
	cycle := func() {
		publish(b, "t", 7)
		sim.RunFor(time.Second)
		buf = b.Topic("t").PullAppend(buf[:0], 4)
		for _, m := range buf {
			b.Recycle(m)
		}
	}
	cycle() // warm the pool and the topic queue
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Errorf("steady-state publish cycle allocates %.1f objects, want 0", allocs)
	}
}

func TestBusDeliveryLatencyStreamUnchanged(t *testing.T) {
	// A seeded bus draws each delivery latency as dist.Seconds on its
	// own stream, one draw per publish.
	sim, b := newBus()
	var deliveredAt time.Duration
	b.Topic("t").OnDelivery(func() { deliveredAt = sim.Now() })
	ref := dist.NewRand(1) // newBus seed
	for i := 0; i < 100; i++ {
		before := sim.Now()
		publish(b, "t", i)
		want := dist.Seconds(dist.Constant{Value: 0.01}, ref)
		sim.Run()
		m := pull(b.Topic("t"), 1)[0]
		if got := deliveredAt - before; got != want {
			t.Fatalf("publish %d: latency %v, want %v", i, got, want)
		}
		b.Recycle(m)
	}
}
