// Package bus provides the Kafka-like message substrate of the OpenWhisk
// emulation: named topics with at-most-once pull consumption, per-invoker
// queues, the global fast-lane topic of §III-C, and bulk move semantics
// used by the hand-off protocol (a terminating invoker's unexecuted
// requests move to the fast lane; the controller moves the unpulled ones).
//
// The bus sits on the per-invocation hot path (one publish + one
// delivery + one pull per request, 864k requests on a paper day), so it
// is allocation-free in steady state: messages live in a per-bus free
// list with generation-checked recycling (mirroring the des callback
// slot pool), deliveries are typed-arg des events carrying the message
// itself (no per-publish closure), and the target topic is captured
// once at publish time (no per-delivery map lookup).
package bus

import (
	"math/rand"

	"repro/internal/des"
	"repro/internal/dist"
)

// Message is one queued unit (an OpenWhisk activation request).
//
// Messages are pooled: a consumer that pulled a message owns it and may
// hand it back with Bus.Recycle once the payload is extracted, after
// which the pointer must not be used again (Generation detects stale
// handles in tests). Consumers that never recycle — external pullers,
// rotting queues of killed invokers — simply leave the message to the
// garbage collector, exactly as before pooling.
type Message struct {
	ID        int64
	TopicName string
	Payload   any
	Published des.Time // when PublishTo was called
	Delivered des.Time // when it became pullable
	Moves     int      // how many times it was moved between topics

	topic  *Topic // delivery/requeue target, captured at publish time
	gen    uint32 // increments on every recycle
	pooled bool   // sitting in the bus free list (double-recycle guard)
}

// Generation reports how many times the message's slot has been
// recycled. A holder that kept a *Message across a Recycle can detect
// the reuse by comparing generations.
func (m *Message) Generation() uint32 { return m.gen }

// Bus manages topics on the simulation plane.
type Bus struct {
	sim     *des.Sim
	latency dist.Dist // publish→deliver latency in seconds, drawn from rng
	rng     *rand.Rand
	topics  map[string]*Topic
	nextID  int64

	free      []*Message
	deliverFn func(any) // cached method value: one closure per bus, not per publish

	// Counters across all topics.
	Published int
	Moved     int
}

// DefaultLatency models a small on-cluster Kafka hop.
func DefaultLatency() dist.Dist { return dist.Uniform{Lo: 0.004, Hi: 0.020} }

// New creates a bus whose deliveries take latency seconds (nil for
// DefaultLatency).
func New(sim *des.Sim, latency dist.Dist, seed int64) *Bus {
	if latency == nil {
		latency = DefaultLatency()
	}
	b := &Bus{
		sim:     sim,
		latency: latency,
		rng:     dist.NewRand(seed),
		topics:  map[string]*Topic{},
	}
	b.deliverFn = b.deliver
	return b
}

// Topic returns the named topic, creating it on first use.
func (b *Bus) Topic(name string) *Topic {
	t, ok := b.topics[name]
	if !ok {
		t = &Topic{name: name, bus: b}
		b.topics[name] = t
	}
	return t
}

// PublishTo enqueues payload on topic t after the delivery latency. The
// caller resolves the topic once (the controller does so at routing
// time), and the message captures it, so delivery needs no name lookup.
func (b *Bus) PublishTo(t *Topic, payload any) *Message {
	m := b.get()
	m.ID = b.nextID
	m.TopicName = t.name
	m.Payload = payload
	m.Published = b.sim.Now()
	m.topic = t
	b.nextID++
	b.Published++
	b.sim.AfterCall(dist.Seconds(b.latency, b.rng), b.deliverFn, m)
	return m
}

// Wrap takes a blank message from the pool around an out-of-band
// payload (an invoker flushing interrupted work to the fast lane via
// Requeue). Unlike PublishTo it assigns no ID, stamps no publish time,
// and counts nothing: the message never traveled through a delivery.
func (b *Bus) Wrap(payload any) *Message {
	m := b.get()
	m.Payload = payload
	return m
}

// Recycle returns a consumed message to the free list. Only the owner
// (the consumer that pulled it, or the publisher of a message that
// never reached a queue) may recycle; doing so twice panics. The
// message is zeroed except for its generation, which increments so
// stale handles are detectable.
func (b *Bus) Recycle(m *Message) {
	if m.pooled {
		panic("bus: message recycled twice")
	}
	*m = Message{gen: m.gen + 1, pooled: true}
	b.free = append(b.free, m)
}

// get pops the free list or allocates the pool's next message.
func (b *Bus) get() *Message {
	if k := len(b.free); k > 0 {
		m := b.free[k-1]
		b.free[k-1] = nil
		b.free = b.free[:k-1]
		m.pooled = false
		return m
	}
	return &Message{}
}

// deliver lands a published message on its captured topic (the typed-arg
// des callback of every publish).
func (b *Bus) deliver(v any) {
	m := v.(*Message)
	t := m.topic
	m.Delivered = b.sim.Now()
	t.queue = append(t.queue, m)
	t.noteDepth(1)
	t.Delivered++
	if t.onDelivery != nil {
		t.onDelivery()
	}
}

// Topic is a FIFO queue with single-consumer pull semantics.
type Topic struct {
	name  string
	bus   *Bus
	queue []*Message

	// watch, when non-nil, is an external backlog counter this topic
	// keeps in sync: every queue mutation adds its length delta. The
	// whisk controller watches the topics of currently registered
	// invokers so its QueueDepth signal is a field read instead of a
	// per-call scan over every topic.
	watch *int

	onDelivery func()

	// Counters.
	Delivered int
	Pulled    int
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Len returns the number of pullable messages.
func (t *Topic) Len() int { return len(t.queue) }

// Watch registers counter as this topic's live backlog aggregate: the
// current queue length is added now, and every future queue mutation
// (delivery, pull, move, requeue) applies its delta, so *counter always
// equals the sum of the watched topics' lengths plus whatever else the
// owner adds to it. One watcher per topic; watching an already-watched
// topic panics (a programming error — the controller owns its topics).
func (t *Topic) Watch(counter *int) {
	if t.watch != nil {
		panic("bus: topic " + t.name + " already watched")
	}
	t.watch = counter
	*counter += len(t.queue)
}

// Unwatch detaches the backlog counter, subtracting the current queue
// length so the aggregate no longer accounts for this topic. A no-op on
// an unwatched topic.
func (t *Topic) Unwatch() {
	if t.watch == nil {
		return
	}
	*t.watch -= len(t.queue)
	t.watch = nil
}

// noteDepth applies a queue-length delta to the watcher, if any. Every
// mutation of t.queue must route its delta through here.
func (t *Topic) noteDepth(delta int) {
	if t.watch != nil {
		*t.watch += delta
	}
}

// OnDelivery registers a single callback invoked after each delivery
// (used by invokers to wake their dispatch loop promptly).
func (t *Topic) OnDelivery(fn func()) { t.onDelivery = fn }

// PullAppend removes up to max messages from the head and appends them
// to dst, returning the extended slice. Invokers pull on every delivery
// and poll wake-up, so they reuse their buffer as dst and the pull
// allocates nothing.
func (t *Topic) PullAppend(dst []*Message, max int) []*Message {
	n := max
	if n > len(t.queue) {
		n = len(t.queue)
	}
	if n <= 0 {
		return dst
	}
	dst = append(dst, t.queue[:n]...)
	copy(t.queue, t.queue[n:])
	for i := len(t.queue) - n; i < len(t.queue); i++ {
		t.queue[i] = nil
	}
	t.queue = t.queue[:len(t.queue)-n]
	t.noteDepth(-n)
	t.Pulled += n
	return dst
}

// MoveAll transfers every queued message to another topic immediately
// (the controller-side hand-off of §III-C). It returns the count moved.
func (t *Topic) MoveAll(to *Topic) int {
	n := len(t.queue)
	for _, m := range t.queue {
		m.Moves++
		m.TopicName = to.name
		m.topic = to
		to.queue = append(to.queue, m)
	}
	t.queue = t.queue[:0]
	t.noteDepth(-n)
	to.noteDepth(n)
	t.bus.Moved += n
	if n > 0 && to.onDelivery != nil {
		to.onDelivery()
	}
	return n
}

// Requeue places messages at the tail of the topic immediately (an
// invoker flushing its internal buffer to the fast lane).
func (t *Topic) Requeue(msgs []*Message) {
	for _, m := range msgs {
		m.Moves++
		m.TopicName = t.name
		m.topic = t
		t.queue = append(t.queue, m)
	}
	t.noteDepth(len(msgs))
	if len(msgs) > 0 && t.onDelivery != nil {
		t.onDelivery()
	}
}
