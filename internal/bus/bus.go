// Package bus provides the Kafka-like message substrate of the OpenWhisk
// emulation: topics with at-most-once pull consumption, per-invoker
// queues, the global fast-lane topic of §III-C, and bulk move semantics
// used by the hand-off protocol (a terminating invoker's unexecuted
// requests move to the fast lane; the controller moves the unpulled ones).
//
// The bus sits on the per-invocation hot path (one publish + one
// delivery + one pull per request, 864k requests on a paper day), so it
// is allocation-free in steady state: topics queue the payloads
// themselves, and a delivery is a typed-arg des event on the target
// topic's cached callback whose argument is the payload, so a publish
// allocates neither a wrapper nor a closure.
package bus

import (
	"math/rand"

	"repro/internal/des"
	"repro/internal/dist"
)

// Bus manages the topics of one payload type on the simulation plane.
type Bus[T any] struct {
	sim     *des.Sim
	latency dist.Dist // publish→deliver latency in seconds, drawn from rng
	rng     *rand.Rand

	// Counters across all topics.
	Published int
	Moved     int
}

// DefaultLatency models a small on-cluster Kafka hop.
func DefaultLatency() dist.Dist { return dist.Uniform{Lo: 0.004, Hi: 0.020} }

// New creates a bus whose deliveries take latency seconds (nil for
// DefaultLatency).
func New[T any](sim *des.Sim, latency dist.Dist, seed int64) *Bus[T] {
	if latency == nil {
		latency = DefaultLatency()
	}
	return &Bus[T]{
		sim:     sim,
		latency: latency,
		rng:     dist.NewRand(seed),
	}
}

// NewTopic creates an empty topic on the bus. Its owner keeps it: the
// bus holds no registry of topics.
func (b *Bus[T]) NewTopic() *Topic[T] {
	t := &Topic[T]{bus: b}
	t.deliverFn = t.deliver
	return t
}

// PublishTo enqueues p on topic t after the delivery latency.
func (b *Bus[T]) PublishTo(t *Topic[T], p T) {
	b.Published++
	b.sim.AfterCall(dist.Seconds(b.latency, b.rng), t.deliverFn, p)
}

// Topic is a FIFO queue with single-consumer pull semantics.
type Topic[T any] struct {
	bus   *Bus[T]
	queue []T

	// watch, when non-nil, is an external backlog counter this topic
	// keeps in sync: every queue mutation adds its length delta. The
	// whisk controller watches the topics of currently registered
	// invokers so its QueueDepth signal is a field read instead of a
	// per-call scan over every topic.
	watch *int

	onDelivery func()
	deliverFn  func(any) // cached method value: one closure per topic, not per publish
}

// deliver lands a published payload on the topic (the typed-arg des
// callback of every publish to it).
func (t *Topic[T]) deliver(v any) {
	t.queue = append(t.queue, v.(T))
	t.noteDepth(1)
	if t.onDelivery != nil {
		t.onDelivery()
	}
}

// Len returns the number of pullable payloads.
func (t *Topic[T]) Len() int { return len(t.queue) }

// Watch registers counter as this topic's live backlog aggregate: the
// current queue length is added now, and every future queue mutation
// (delivery, pull, move, requeue) applies its delta, so *counter always
// equals the sum of the watched topics' lengths plus whatever else the
// owner adds to it. One watcher per topic; watching an already-watched
// topic panics (a programming error — the controller owns its topics).
func (t *Topic[T]) Watch(counter *int) {
	if t.watch != nil {
		panic("bus: topic already watched")
	}
	t.watch = counter
	*counter += len(t.queue)
}

// Unwatch detaches the backlog counter, subtracting the current queue
// length so the aggregate no longer accounts for this topic. A no-op on
// an unwatched topic.
func (t *Topic[T]) Unwatch() {
	if t.watch == nil {
		return
	}
	*t.watch -= len(t.queue)
	t.watch = nil
}

// noteDepth applies a queue-length delta to the watcher, if any. Every
// mutation of t.queue must route its delta through here.
func (t *Topic[T]) noteDepth(delta int) {
	if t.watch != nil {
		*t.watch += delta
	}
}

// OnDelivery registers a single callback invoked after each delivery
// (used by invokers to wake their dispatch loop promptly).
func (t *Topic[T]) OnDelivery(fn func()) { t.onDelivery = fn }

// PullAppend removes up to max payloads from the head and appends them
// to dst, returning the extended slice. Invokers pull on every delivery
// and poll wake-up, so they reuse their buffer as dst and the pull
// allocates nothing.
func (t *Topic[T]) PullAppend(dst []T, max int) []T {
	n := min(max, len(t.queue))
	if n <= 0 {
		return dst
	}
	dst = append(dst, t.queue[:n]...)
	copy(t.queue, t.queue[n:])
	clear(t.queue[len(t.queue)-n:])
	t.queue = t.queue[:len(t.queue)-n]
	t.noteDepth(-n)
	return dst
}

// MoveAll transfers every queued payload to another topic immediately
// (the controller-side hand-off of §III-C). It returns the count moved.
func (t *Topic[T]) MoveAll(to *Topic[T]) int {
	n := len(t.queue)
	to.queue = append(to.queue, t.queue...)
	t.queue = t.queue[:0]
	t.noteDepth(-n)
	to.noteDepth(n)
	t.bus.Moved += n
	if n > 0 && to.onDelivery != nil {
		to.onDelivery()
	}
	return n
}

// Requeue places payloads at the tail of the topic immediately (an
// invoker flushing its internal buffer to the fast lane).
func (t *Topic[T]) Requeue(ps ...T) {
	t.queue = append(t.queue, ps...)
	t.noteDepth(len(ps))
	if len(ps) > 0 && t.onDelivery != nil {
		t.onDelivery()
	}
}
