package bus

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/dist"
)

func newBus() (*des.Sim, *Bus) {
	sim := des.New()
	return sim, New(sim, dist.Constant{Value: 0.01}, 1)
}

// publish and pull are test shorthands: PublishTo by topic name, and
// PullAppend into a fresh slice (nil when nothing was pulled).
func publish(b *Bus, name string, payload any) *Message { return b.PublishTo(b.Topic(name), payload) }
func pull(t *Topic, max int) []*Message                 { return t.PullAppend(nil, max) }

func TestPublishDeliversAfterLatency(t *testing.T) {
	sim, b := newBus()
	publish(b, "t", "hello")
	if b.Topic("t").Len() != 0 {
		t.Fatal("message visible before delivery latency")
	}
	sim.RunUntil(20 * time.Millisecond)
	if b.Topic("t").Len() != 1 {
		t.Fatal("message not delivered")
	}
	msgs := pull(b.Topic("t"), 10)
	if len(msgs) != 1 || msgs[0].Payload != "hello" {
		t.Fatalf("pulled %v", msgs)
	}
	if msgs[0].Delivered != 10*time.Millisecond {
		t.Errorf("delivered at %v, want 10ms", msgs[0].Delivered)
	}
}

func TestPullFIFOAndPartial(t *testing.T) {
	sim, b := newBus()
	for i := 0; i < 5; i++ {
		publish(b, "t", i)
	}
	sim.Run()
	first := pull(b.Topic("t"), 2)
	if len(first) != 2 || first[0].Payload != 0 || first[1].Payload != 1 {
		t.Fatalf("first pull = %v", first)
	}
	rest := pull(b.Topic("t"), 10)
	if len(rest) != 3 || rest[0].Payload != 2 {
		t.Fatalf("rest pull = %v", rest)
	}
	if pull(b.Topic("t"), 1) != nil {
		t.Error("pull from empty topic should be nil")
	}
}

func TestMoveAllToFastLane(t *testing.T) {
	sim, b := newBus()
	for i := 0; i < 3; i++ {
		publish(b, "invoker0", i)
	}
	sim.Run()
	moved := b.Topic("invoker0").MoveAll(b.Topic("fastlane"))
	if moved != 3 {
		t.Fatalf("moved = %d, want 3", moved)
	}
	if b.Topic("invoker0").Len() != 0 {
		t.Error("source topic not emptied")
	}
	msgs := pull(b.Topic("fastlane"), 10)
	if len(msgs) != 3 {
		t.Fatalf("fast lane has %d messages", len(msgs))
	}
	for i, m := range msgs {
		if m.Payload != i {
			t.Errorf("order broken: %v at %d", m.Payload, i)
		}
		if m.Moves != 1 || m.TopicName != "fastlane" {
			t.Errorf("move bookkeeping: moves=%d topic=%s", m.Moves, m.TopicName)
		}
	}
}

func TestRequeuePreservesOrderAtTail(t *testing.T) {
	sim, b := newBus()
	publish(b, "fl", "a")
	sim.Run()
	held := pull(b.Topic("fl"), 1)
	publish(b, "fl", "b")
	sim.Run()
	b.Topic("fl").Requeue(held)
	msgs := pull(b.Topic("fl"), 10)
	if len(msgs) != 2 || msgs[0].Payload != "b" || msgs[1].Payload != "a" {
		t.Fatalf("requeue order = %v", msgs)
	}
}

func TestOnDeliveryCallback(t *testing.T) {
	sim, b := newBus()
	calls := 0
	b.Topic("t").OnDelivery(func() { calls++ })
	publish(b, "t", 1)
	publish(b, "t", 2)
	sim.Run()
	if calls != 2 {
		t.Errorf("delivery callbacks = %d, want 2", calls)
	}
	// MoveAll and Requeue also wake the target.
	b.Topic("src").Requeue([]*Message{{}})
	b.Topic("src").MoveAll(b.Topic("t"))
	if calls != 3 {
		t.Errorf("callbacks after move = %d, want 3", calls)
	}
}

func TestCounters(t *testing.T) {
	sim, b := newBus()
	for i := 0; i < 4; i++ {
		publish(b, "t", i)
	}
	sim.Run()
	pull(b.Topic("t"), 2)
	b.Topic("t").MoveAll(b.Topic("u"))
	if b.Published != 4 {
		t.Errorf("published = %d", b.Published)
	}
	if b.Topic("t").Delivered != 4 || b.Topic("t").Pulled != 2 {
		t.Errorf("topic counters = %d/%d", b.Topic("t").Delivered, b.Topic("t").Pulled)
	}
	if b.Moved != 2 {
		t.Errorf("moved = %d", b.Moved)
	}
}

// Property: no message is ever lost or duplicated across random
// publish/pull/move sequences.
func TestPropertyConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		sim, b := newBus()
		topics := []string{"a", "b", "c"}
		published, consumed := 0, 0
		for _, op := range ops {
			from := topics[int(op)%3]
			to := topics[int(op/3)%3]
			switch op % 4 {
			case 0:
				publish(b, from, int(op))
				published++
			case 1:
				sim.RunFor(time.Second)
				consumed += len(pull(b.Topic(from), int(op%5)+1))
			case 2:
				sim.RunFor(time.Second)
				if from != to {
					b.Topic(from).MoveAll(b.Topic(to))
				}
			case 3:
				sim.RunFor(50 * time.Millisecond)
			}
		}
		sim.Run()
		inQueues := 0
		for _, name := range topics {
			inQueues += b.Topic(name).Len()
		}
		return published == consumed+inQueues
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
