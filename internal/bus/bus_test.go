package bus

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/dist"
)

func newBus() (*des.Sim, *Bus[any]) {
	sim := des.New()
	return sim, New[any](sim, dist.Constant{Value: 0.01}, 1)
}

// pull is a test shorthand: PullAppend into a fresh slice (nil when
// nothing was pulled).
func pull[T any](t *Topic[T], max int) []T { return t.PullAppend(nil, max) }

func TestPublishDeliversAfterLatency(t *testing.T) {
	sim, b := newBus()
	var deliveredAt time.Duration
	tp := b.NewTopic()
	tp.OnDelivery(func() { deliveredAt = sim.Now() })
	b.PublishTo(tp, "hello")
	if tp.Len() != 0 {
		t.Fatal("payload visible before delivery latency")
	}
	sim.RunUntil(20 * time.Millisecond)
	if tp.Len() != 1 {
		t.Fatal("payload not delivered")
	}
	ps := pull(tp, 10)
	if len(ps) != 1 || ps[0] != "hello" {
		t.Fatalf("pulled %v", ps)
	}
	if deliveredAt != 10*time.Millisecond {
		t.Errorf("delivered at %v, want 10ms", deliveredAt)
	}
}

func TestPullFIFOAndPartial(t *testing.T) {
	sim, b := newBus()
	tp := b.NewTopic()
	for i := 0; i < 5; i++ {
		b.PublishTo(tp, i)
	}
	sim.Run()
	first := pull(tp, 2)
	if len(first) != 2 || first[0] != 0 || first[1] != 1 {
		t.Fatalf("first pull = %v", first)
	}
	rest := pull(tp, 10)
	if len(rest) != 3 || rest[0] != 2 {
		t.Fatalf("rest pull = %v", rest)
	}
	if pull(tp, 1) != nil {
		t.Error("pull from empty topic should be nil")
	}
}

func TestMoveAllToFastLane(t *testing.T) {
	sim, b := newBus()
	invoker0, fastlane := b.NewTopic(), b.NewTopic()
	for i := 0; i < 3; i++ {
		b.PublishTo(invoker0, i)
	}
	sim.Run()
	moved := invoker0.MoveAll(fastlane)
	if moved != 3 || b.Moved != 3 {
		t.Fatalf("moved = %d (counter %d), want 3", moved, b.Moved)
	}
	if invoker0.Len() != 0 {
		t.Error("source topic not emptied")
	}
	ps := pull(fastlane, 10)
	if len(ps) != 3 {
		t.Fatalf("fast lane has %d payloads", len(ps))
	}
	for i, p := range ps {
		if p != i {
			t.Errorf("order broken: %v at %d", p, i)
		}
	}
}

func TestRequeuePreservesOrderAtTail(t *testing.T) {
	sim, b := newBus()
	fl := b.NewTopic()
	b.PublishTo(fl, "a")
	sim.Run()
	held := pull(fl, 1)
	b.PublishTo(fl, "b")
	sim.Run()
	fl.Requeue(held...)
	ps := pull(fl, 10)
	if len(ps) != 2 || ps[0] != "b" || ps[1] != "a" {
		t.Fatalf("requeue order = %v", ps)
	}
}

func TestOnDeliveryCallback(t *testing.T) {
	sim, b := newBus()
	calls := 0
	tp, src := b.NewTopic(), b.NewTopic()
	tp.OnDelivery(func() { calls++ })
	b.PublishTo(tp, 1)
	b.PublishTo(tp, 2)
	sim.Run()
	if calls != 2 {
		t.Errorf("delivery callbacks = %d, want 2", calls)
	}
	// MoveAll and Requeue also wake the target.
	src.Requeue(3)
	src.MoveAll(tp)
	if calls != 3 {
		t.Errorf("callbacks after move = %d, want 3", calls)
	}
}

func TestCounters(t *testing.T) {
	sim, b := newBus()
	tp, u := b.NewTopic(), b.NewTopic()
	for i := 0; i < 4; i++ {
		b.PublishTo(tp, i)
	}
	sim.Run()
	pull(tp, 2)
	tp.MoveAll(u)
	if b.Published != 4 {
		t.Errorf("published = %d", b.Published)
	}
	if b.Moved != 2 || tp.Len() != 0 || u.Len() != 2 {
		t.Errorf("moved = %d, lens = %d/%d, want 2, 0/2", b.Moved, tp.Len(), u.Len())
	}
}

// Property: no payload is ever lost or duplicated across random
// publish/pull/move sequences.
func TestPropertyConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		sim, b := newBus()
		topics := []*Topic[any]{b.NewTopic(), b.NewTopic(), b.NewTopic()}
		published, consumed := 0, 0
		for _, op := range ops {
			from := topics[int(op)%3]
			to := topics[int(op/3)%3]
			switch op % 4 {
			case 0:
				b.PublishTo(from, int(op))
				published++
			case 1:
				sim.RunFor(time.Second)
				consumed += len(pull(from, int(op%5)+1))
			case 2:
				sim.RunFor(time.Second)
				if from != to {
					from.MoveAll(to)
				}
			case 3:
				sim.RunFor(50 * time.Millisecond)
			}
		}
		sim.Run()
		inQueues := 0
		for _, tp := range topics {
			inQueues += tp.Len()
		}
		return published == consumed+inQueues
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPublishToSkipsLookup: a publish lands on the topic it was handed,
// and on no other topic of the bus.
func TestPublishToSkipsLookup(t *testing.T) {
	sim, b := newBus()
	topic, other := b.NewTopic(), b.NewTopic()
	b.PublishTo(topic, 42)
	sim.Run()
	if topic.Len() != 1 || other.Len() != 0 || b.Published != 1 {
		t.Errorf("lens=%d/%d published=%d, want 1/0/1", topic.Len(), other.Len(), b.Published)
	}
}

// TestRequeueCountsNoPublish: an out-of-band payload (an invoker
// flushing interrupted work to the fast lane) lands at the tail at
// once and counts neither a publish nor a move.
func TestRequeueCountsNoPublish(t *testing.T) {
	_, b := newBus()
	fl := b.NewTopic()
	fl.Requeue("payload")
	if fl.Len() != 1 || b.Published != 0 || b.Moved != 0 {
		t.Errorf("requeue: len=%d published=%d moved=%d, want 1/0/0", fl.Len(), b.Published, b.Moved)
	}
}

func TestPullAppendReusesDst(t *testing.T) {
	sim, b := newBus()
	tp := b.NewTopic()
	for i := 0; i < 5; i++ {
		b.PublishTo(tp, i)
	}
	sim.Run()
	buf := make([]any, 0, 8)
	buf = tp.PullAppend(buf, 2)
	if len(buf) != 2 || buf[0] != 0 || buf[1] != 1 {
		t.Fatalf("first pull-append = %v", buf)
	}
	buf = tp.PullAppend(buf, 10)
	if len(buf) != 5 || buf[4] != 4 {
		t.Fatalf("second pull-append = %v", buf)
	}
	if got := tp.PullAppend(buf, 3); len(got) != 5 || tp.Len() != 0 {
		t.Errorf("pull-append from a drained topic: %d payloads, len %d; want 5, 0", len(got), tp.Len())
	}
}

// TestSteadyStatePublishIsAllocationFree: once the topic queue and the
// consumer's buffer have grown, a publish→deliver→pull cycle of a
// pointer payload (what the whisk controller publishes) performs zero
// heap allocations.
func TestSteadyStatePublishIsAllocationFree(t *testing.T) {
	sim := des.New()
	b := New[*int](sim, dist.Constant{Value: 0.01}, 1)
	tp := b.NewTopic()
	p := new(int)
	buf := make([]*int, 0, 4)
	cycle := func() {
		b.PublishTo(tp, p)
		sim.RunFor(time.Second)
		buf = tp.PullAppend(buf[:0], 4)
	}
	cycle() // grow the topic queue and the des callback slots
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Errorf("steady-state publish cycle allocates %.1f objects, want 0", allocs)
	}
	if len(buf) != 1 || buf[0] != p {
		t.Fatalf("pulled %v, want the published pointer", buf)
	}
}

func TestBusDeliveryLatencyStreamUnchanged(t *testing.T) {
	// A seeded bus draws each delivery latency as dist.Seconds on its
	// own stream, one draw per publish.
	sim, b := newBus()
	tp := b.NewTopic()
	var deliveredAt time.Duration
	tp.OnDelivery(func() { deliveredAt = sim.Now() })
	ref := dist.NewRand(1) // newBus seed
	for i := 0; i < 100; i++ {
		before := sim.Now()
		b.PublishTo(tp, i)
		want := dist.Seconds(dist.Constant{Value: 0.01}, ref)
		sim.Run()
		pull(tp, 1)
		if got := deliveredAt - before; got != want {
			t.Fatalf("publish %d: latency %v, want %v", i, got, want)
		}
	}
}
