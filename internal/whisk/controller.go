package whisk

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/stats"
)

// ControllerConfig models the request path of the OpenWhisk controller.
// The latency components are calibrated so that a 10 ms sleep function
// completes in ≈0.8-0.9 s end to end, matching §V-C (median 865 ms) and
// the SeBS observation the paper cites for short functions.
type ControllerConfig struct {
	OverheadSeconds dist.Dist     // activation bookkeeping (dominates)
	ActionTimeout   time.Duration // client-visible timeout

	// PoolInvocations recycles completed Invocation objects through a
	// controller-side free list, making the request path allocation-free
	// in steady state (a paper day invokes 864k times). With pooling on,
	// the *Invocation passed to done is only valid for the duration of
	// the callback: the controller may hand the object to a later
	// invocation once every reference (pending hops, a place on a topic
	// or in a buffer, the executing invoker) has been released. Callers
	// that retain invocation pointers across further traffic must leave
	// pooling off (the default here; core.DefaultSystemConfig turns it on
	// for the wired deployment, whose clients never retain).
	PoolInvocations bool
}

// DefaultControllerConfig returns the calibrated request-path model.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		OverheadSeconds: dist.Lognormal{Mu: math.Log(0.62), Sigma: 0.30},
		ActionTimeout:   60 * time.Second,
	}
}

// The calibrated request-path hop latencies, in seconds. They are
// typed dist.Uniform, not dist.Dist, so each dist.Seconds draw inlines
// and devirtualizes.
var (
	ingressSeconds = dist.Uniform{Lo: 0.010, Hi: 0.040} // client → controller (one way)
	egressSeconds  = dist.Uniform{Lo: 0.010, Hi: 0.040} // controller → client (one way)
	processSeconds = dist.Uniform{Lo: 0.002, Hi: 0.008} // routing decision
	resultSeconds  = dist.Uniform{Lo: 0.010, Hi: 0.030} // invoker → controller result hop
)

// statusLatency is the worker status propagation delay: the controller
// acts on an invoker's SIGTERM this long after it (drainCb).
const statusLatency = 500 * time.Millisecond

// Controller is the (modified) OpenWhisk controller: it routes
// invocations to the home invoker derived from the action-name hash,
// maintains the dynamic list of registered HPC-Whisk invokers, returns
// 503 when none is healthy, and participates in the fast-lane hand-off.
//
// The request path ingress→route→publish→timeout→result→egress is
// allocation-free per invocation: every hop is a typed-arg des event
// (des.AfterCall) whose callback is a method value cached once at
// construction and whose argument is the invocation itself. Every
// per-hop latency draws from the controller's one stream, rng, and the
// draw order on it is part of the pinned deterministic behavior.
// Invocation lifetime is reference-counted (pending hops + a place
// queued on a topic or in a buffer + the executing invoker); when
// pooling is enabled the last release recycles the object.
type Controller struct {
	sim *des.Sim
	b   *bus.Bus[*Invocation]
	cfg ControllerConfig
	rng *rand.Rand

	// Cached request-path callbacks: one method value each, not one
	// closure per hop per invocation.
	routeFn, publishFn, timeoutFn, resultFn, egressFn, drainFn func(any)

	// actions maps a deployed name to its action index: the position
	// in actionList, dense per controller. Invocations carry the index
	// to the invokers, whose container pools are slices indexed by it,
	// so an execution looks up no name. (The index lives here, not on
	// the Action: a federation shares one *Action across its sites.)
	actions    map[string]int
	actionList []*Action

	// slots is the dynamic invoker list: index = slot id, nil = free.
	// It never shrinks, so its length is the high-water slot count: the
	// modulus of the action-hash home-invoker mapping. Keeping it stable
	// preserves each action's home assignment (and warm-container
	// affinity) across churn instead of reshuffling every action
	// whenever the tail empties. (It also pins the routing sequence the
	// simulation goldens were recorded under.)
	slots []*Invoker

	// topics[i] is slot i's topic. It grows with slots and outlives
	// the slot's invokers: a call routed to an invoker that has since
	// left lands on the topic, and the slot's next owner pulls it.
	topics []*bus.Topic[*Invocation]

	// healthy is a bitmap over slots: bit i is set iff slots[i] holds
	// an InvokerHealthy invoker. On a pilot-churning day the high-water
	// list is mostly empty (about 110 slots for 12 or 13 healthy
	// invokers), so routing and fast-lane wake-ups walk the set bits
	// instead of probing every slot. Maintained by noteStateChange next
	// to nHealthy; recomputeAggregates rebuilds it by scan.
	healthy []uint64

	// O(1) control-plane aggregates. Every routing decision, router
	// snapshot, and supply-policy tick reads these signals, so they are
	// maintained incrementally at the state transitions that change them
	// instead of recomputed by per-call scans over the slot array —
	// values identical to the scans (recomputeAggregates is the test
	// oracle; the aggregate storm test cross-checks every transition).
	//
	//   nHealthy    — invokers in state InvokerHealthy
	//                 (attach, Sigterm, Kill)
	//   nDraining   — invokers in state InvokerDraining
	//                 (Sigterm, deregister, Kill)
	//   healthyCap  — Σ cfg.Capacity over healthy invokers
	//                 (same transitions as nHealthy)
	//   busyHealthy — Σ len(running) over healthy invokers
	//                 (execute, removeRunning, and the healthy-state
	//                 transitions, which add/remove the whole list)
	//   backlog     — Σ topic.Len() + Σ len(buffer) over slotted
	//                 invokers (topic deltas via bus.Topic.Watch,
	//                 armed in attach and disarmed in clearSlot;
	//                 buffer deltas via noteBuffer in poll, dispatch,
	//                 Sigterm, and Kill)
	nHealthy    int
	nDraining   int
	healthyCap  int
	busyHealthy int
	backlog     int

	fastLane *bus.Topic[*Invocation]

	nextInvID int64
	invPool   []*Invocation

	// spare holds the invokers handed back by Release, for NewInvoker
	// to reuse.
	spare []*Invoker

	// Counters.
	Total     int
	N503      int
	NSuccess  int
	NFailed   int
	NTimeout  int
	Registers int

	// Work is the checkpoint subsystem's compute-accounting ledger,
	// written by this controller's invokers (goodput on completion,
	// wasted/lost on interrupts and kills, checkpoint and restore
	// overheads as they are paid). Site-local by construction: no other
	// site of a federation writes it.
	Work stats.WorkCounters
}

// NewController builds a controller over the given bus.
func NewController(sim *des.Sim, b *bus.Bus[*Invocation], cfg ControllerConfig, seed int64) *Controller {
	c := &Controller{
		sim:     sim,
		b:       b,
		cfg:     cfg,
		rng:     dist.NewRand(seed),
		actions: map[string]int{},
	}
	c.routeFn = c.routeCb
	c.publishFn = c.publishCb
	c.timeoutFn = c.timeoutCb
	c.resultFn = c.resultCb
	c.egressFn = c.egressCb
	c.drainFn = c.drainCb
	c.fastLane = b.NewTopic()
	c.fastLane.OnDelivery(c.wakeInvokers)
	return c
}

// RegisterAction deploys a function under the next action index. The
// action-name hash that derives the home invoker is memoized here, once
// per deployment, so the per-request pickInvoker never rehashes the
// name.
func (c *Controller) RegisterAction(a *Action) {
	if _, dup := c.actions[a.Name]; dup {
		panic(fmt.Sprintf("whisk: action %q already registered", a.Name))
	}
	a.nameHash = a.hash()
	c.actions[a.Name] = len(c.actionList)
	c.actionList = append(c.actionList, a)
}

// HealthyCount returns the number of invokers accepting work. O(1):
// a maintained aggregate, not a slot scan.
func (c *Controller) HealthyCount() int { return c.nHealthy }

// Utilization returns the busy share of healthy invoker capacity:
// in-flight executions over total concurrency slots, in [0, 1]. It is
// 0 with no healthy invoker. Supply policies use it as their
// harvested-pool load signal. O(1): the numerator and denominator are
// maintained aggregates, divided exactly as the scan divided them.
func (c *Controller) Utilization() float64 {
	if c.healthyCap == 0 {
		return 0
	}
	return float64(c.busyHealthy) / float64(c.healthyCap)
}

// DrainingCount returns the number of invokers mid-hand-off (§III-C):
// still registered, no longer routed to. Routing layers read it as an
// early reclaim-storm signal. O(1).
func (c *Controller) DrainingCount() int { return c.nDraining }

// QueueDepth returns the accepted-but-unstarted backlog: unpulled
// topic messages plus invoker-side buffers across the live invokers.
// Together with FastLaneDepth it is the queue-pressure signal the
// federation routing policies observe. O(1): topic lengths flow in
// through bus.Topic.Watch and buffer lengths through noteBuffer.
func (c *Controller) QueueDepth() int { return c.backlog }

// noteBuffer applies an invoker-buffer length delta to the backlog
// aggregate. Every mutation of an attached invoker's buffer reports
// here; watched topics report their own deltas through the bus. The
// delta only lands while w holds a slot — the scan never saw an
// unslotted invoker's buffer.
func (c *Controller) noteBuffer(w *Invoker, delta int) {
	if w.slotted {
		c.backlog += delta
	}
}

// noteStateChange maintains the invoker-population aggregates and the
// healthy-slot bitmap across one state transition of a slotted invoker
// (transitions of an invoker already pulled from the slot list are
// invisible, as they were to the scan). The caller invokes it at the
// transition point, with w.running still reflecting the pre-transition
// list for transitions out of Healthy (the whole in-flight list enters
// or leaves the busy aggregate with its invoker).
func (c *Controller) noteStateChange(w *Invoker, from, to InvokerState) {
	if !w.slotted {
		return
	}
	switch from {
	case InvokerHealthy:
		c.nHealthy--
		c.healthyCap -= w.cfg.Capacity
		c.busyHealthy -= len(w.running)
		c.healthy[w.slot>>6] &^= 1 << (w.slot & 63)
	case InvokerDraining:
		c.nDraining--
	}
	switch to {
	case InvokerHealthy:
		c.nHealthy++
		c.healthyCap += w.cfg.Capacity
		c.busyHealthy += len(w.running)
		c.healthy[w.slot>>6] |= 1 << (w.slot & 63)
	case InvokerDraining:
		c.nDraining++
	}
}

// noteRunning applies an in-flight execution delta for invoker w. Only
// healthy invokers feed the busy aggregate (the scan skipped draining
// ones), so the delta is dropped unless w is currently Healthy — a
// draining invoker's stragglers were already subtracted wholesale by
// its Healthy→Draining transition.
func (c *Controller) noteRunning(w *Invoker, delta int) {
	if w.slotted && w.state == InvokerHealthy {
		c.busyHealthy += delta
	}
}

// recomputeAggregates rebuilds every maintained control-plane aggregate
// by full scan — the pre-O(1) implementations, kept as the equivalence
// oracle — and the healthy-slot set the scan passes, ascending. Tests
// (the aggregate storm cross-check, and any future transition audit)
// compare its results against the live fields and the bitmap; it is
// not called on any hot path.
func (c *Controller) recomputeAggregates() (healthy, draining, capacity, busy, backlog int, healthySlots []int) {
	for i, inv := range c.slots {
		if inv == nil {
			continue
		}
		switch inv.state {
		case InvokerHealthy:
			healthy++
			capacity += inv.cfg.Capacity
			busy += len(inv.running)
			healthySlots = append(healthySlots, i)
		case InvokerDraining:
			draining++
		}
		backlog += inv.topic.Len() + inv.Buffered()
	}
	return healthy, draining, capacity, busy, backlog, healthySlots
}

// FastLaneDepth returns the backlog of the global priority topic —
// work displaced by hand-offs that will compete for the next free
// execution slots.
func (c *Controller) FastLaneDepth() int { return c.fastLane.Len() }

// retain adds one reference to the invocation: a pending request-path
// hop, its place queued on a topic or in a buffer, or the executing
// invoker's running list.
func (c *Controller) retain(inv *Invocation) { inv.refs++ }

// release drops one reference. The last release returns the object to
// the pool (when pooling is on); retain/release imbalances panic loudly
// because a miscount would hand a live invocation to a new request.
func (c *Controller) release(inv *Invocation) {
	inv.refs--
	if inv.refs > 0 {
		return
	}
	if inv.refs < 0 || inv.pooled {
		panic("whisk: invocation reference underflow")
	}
	if c.cfg.PoolInvocations {
		*inv = Invocation{gen: inv.gen + 1, pooled: true}
		c.invPool = append(c.invPool, inv)
	}
}

// getInvocation pops the free list or allocates.
func (c *Controller) getInvocation() *Invocation {
	if k := len(c.invPool); k > 0 {
		inv := c.invPool[k-1]
		c.invPool[k-1] = nil
		c.invPool = c.invPool[:k-1]
		inv.pooled = false
		return inv
	}
	return &Invocation{}
}

// Invoke submits a call to the named action; done fires exactly once
// with the final status.
func (c *Controller) Invoke(name string, done func(*Invocation)) { c.invoke(name, done) }

// invoke is Invoke returning the tracked invocation (valid only until
// it completes when pooling is enabled — see PoolInvocations), for
// tests that watch the object recycle.
func (c *Controller) invoke(name string, done func(*Invocation)) *Invocation {
	idx, ok := c.actions[name]
	if !ok {
		panic(fmt.Sprintf("whisk: unknown action %q", name))
	}
	inv := c.getInvocation()
	inv.ID = c.nextInvID
	inv.Action = c.actionList[idx]
	inv.action = idx
	inv.Submitted = c.sim.Now()
	inv.InvokerID = -1
	inv.done = done
	c.nextInvID++
	c.Total++
	ingress := dist.Seconds(ingressSeconds, c.rng) + dist.Seconds(processSeconds, c.rng)
	c.retain(inv)
	c.sim.AfterCall(ingress, c.routeFn, inv)
	return inv
}

// routeCb is the ingress hop's typed-arg callback.
func (c *Controller) routeCb(v any) {
	inv := v.(*Invocation)
	c.route(inv)
	c.release(inv)
}

// route picks the home invoker (hash + forward probing over the slot
// array, as OpenWhisk does) or completes with 503 if none is healthy.
func (c *Controller) route(inv *Invocation) {
	inv.Routed = c.sim.Now()
	target := c.pickInvoker(inv.Action)
	if target == nil {
		c.complete(inv, Status503)
		return
	}
	// Activation bookkeeping (the dominant fixed cost of the request
	// path), then the message lands on the invoker's topic.
	overhead := dist.Seconds(c.cfg.OverheadSeconds, c.rng)
	inv.routeTopic = target.topic
	c.retain(inv)
	c.sim.AfterCall(overhead, c.publishFn, inv)
}

// publishCb lands the invocation on the routed invoker's topic and
// arms the client-visible timeout. The topic was captured at routing
// time, and still receives the call if the invoker deregistered in
// between: topics outlive their invokers, and the invoker may already
// live again on another slot.
func (c *Controller) publishCb(v any) {
	inv := v.(*Invocation)
	topic := inv.routeTopic
	inv.routeTopic = nil
	c.retain(inv) // the reference of its place on the topic
	c.b.PublishTo(topic, inv)
	c.armTimeout(inv)
	c.release(inv)
}

// pickInvoker routes to the action's home invoker (hash + forward
// probing). If the home invoker is saturated (its buffer has less than
// half its limit free), the probe continues to a less-loaded healthy
// invoker — the load-balancing role of §II — and falls back to the
// home invoker when every candidate is saturated. The probe runs over
// the whole slot list, whose length is stable (see the field comment),
// from the home slot to the end and then from slot 0, but visits only
// the healthy slots: it walks the set bits of the healthy bitmap, and
// the home slot's word twice, first its bits from the home slot up and
// last those below it.
func (c *Controller) pickInvoker(a *Action) *Invoker {
	if c.nHealthy == 0 {
		return nil
	}
	start := int(a.nameHash) % len(c.slots)
	below := uint64(1)<<(start&63) - 1
	var home *Invoker
	for k, w := 0, start>>6; k <= len(c.healthy); k, w = k+1, w+1 {
		if w == len(c.healthy) {
			w = 0
		}
		word := c.healthy[w]
		switch k {
		case 0:
			word &^= below
		case len(c.healthy):
			word &= below
		}
		for ; word != 0; word &= word - 1 {
			inv := c.slots[w<<6+bits.TrailingZeros64(word)]
			if home == nil {
				home = inv
			}
			if inv.Buffered() < inv.cfg.BufferLimit/2 {
				return inv
			}
		}
	}
	return home
}

func (c *Controller) armTimeout(inv *Invocation) {
	c.retain(inv)
	inv.timeoutEv = c.sim.AfterCall(c.cfg.ActionTimeout, c.timeoutFn, inv)
}

// timeoutCb fires when the client-visible timeout expires first.
func (c *Controller) timeoutCb(v any) {
	inv := v.(*Invocation)
	c.complete(inv, StatusTimeout)
	c.release(inv)
}

// finishFromInvoker is called by invokers on execution completion; the
// result travels back through the result hop before the client sees it.
func (c *Controller) finishFromInvoker(inv *Invocation, ok bool) {
	d := dist.Seconds(resultSeconds, c.rng)
	inv.execOK = ok
	c.retain(inv)
	c.sim.AfterCall(d, c.resultFn, inv)
}

// resultCb is the invoker→controller result hop.
func (c *Controller) resultCb(v any) {
	inv := v.(*Invocation)
	if inv.execOK {
		c.complete(inv, StatusSuccess)
	} else {
		c.complete(inv, StatusFailed)
	}
	c.release(inv)
}

// complete finalizes an invocation exactly once.
func (c *Controller) complete(inv *Invocation, status Status) {
	if inv.Status != StatusPending {
		return
	}
	if inv.timeoutEv.Stop() {
		c.release(inv) // the canceled timeout event's reference
	}
	inv.Status = status
	egress := dist.Seconds(egressSeconds, c.rng)
	c.retain(inv)
	c.sim.AfterCall(egress, c.egressFn, inv)
}

// egressCb delivers the outcome to the client and drops the last
// controller-side reference.
func (c *Controller) egressCb(v any) {
	inv := v.(*Invocation)
	inv.Completed = c.sim.Now()
	switch inv.Status {
	case Status503:
		c.N503++
	case StatusSuccess:
		c.NSuccess++
	case StatusFailed:
		c.NFailed++
	case StatusTimeout:
		c.NTimeout++
	}
	if inv.done != nil {
		inv.done(inv)
	}
	c.release(inv)
}

// Register adds an invoker to the dynamic slot list (lowest free slot,
// as the HPC-Whisk controller maintains a dense dynamic invoker list)
// and returns its slot id. From now on the invoker pulls its topic on
// every delivery, and polls on its PollInterval grid while messages
// wait on the fast lane or its topic.
func (c *Controller) Register(inv *Invoker) int {
	slot := -1
	for i, s := range c.slots {
		if s == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = len(c.slots)
		c.slots = append(c.slots, nil)
		c.topics = append(c.topics, c.b.NewTopic())
		if slot>>6 == len(c.healthy) {
			c.healthy = append(c.healthy, 0)
		}
	}
	c.slots[slot] = inv
	inv.attach(c, slot)
	c.Registers++
	return slot
}

// drainCb is the controller-side hand-off of a SIGTERM, statusLatency
// after it: it moves the unpulled messages from the invoker's topic to
// the fast lane. By now the invoker has usually drained and left its
// slot, and messages routed to it before the SIGTERM may have landed on
// its topic after it deregistered; the move rescues them. It is skipped
// only when another invoker has taken the slot, and with it the same
// topic: the new owner pulls those messages itself (attach arms its
// poll when any are waiting). An invoker released while this hop was
// pending goes to the free list now.
func (c *Controller) drainCb(v any) {
	inv := v.(*Invoker)
	if s := c.slots[inv.slot]; s == nil || s == inv {
		inv.topic.MoveAll(c.fastLane)
	}
	if inv.released {
		c.spare = append(c.spare, inv)
	}
}

// wakeInvokers is the fast lane's delivery callback: every healthy
// invoker would pull the new messages at its next poll, so each arms a
// wake-up (or keeps the one it has), in ascending slot order.
func (c *Controller) wakeInvokers() {
	for w, word := range c.healthy {
		for ; word != 0; word &= word - 1 {
			c.slots[w<<6+bits.TrailingZeros64(word)].arm()
		}
	}
}

// clearSlot frees the invoker's slot; the list keeps its length (see
// the field comment). This is the single point an invoker leaves the
// slot list, so every aggregate retires here: the topic watcher
// disarms (messages rotting on the departed topic stop counting,
// exactly as the slot scan stopped seeing them), and an invoker
// removed while still live — Deregister called directly, bypassing the
// drain state machine — takes its population, busy, and buffer
// contributions with it. A gone invoker's topic stops calling it: its
// poll would return at once, and a later life of the invoker must not
// hear this slot. A live one keeps hearing its topic, as before, and
// is never reused.
func (c *Controller) clearSlot(inv *Invoker) {
	inv.wake.Stop()
	if inv.slotted && inv.state == InvokerGone {
		inv.topic.OnDelivery(nil)
		inv.quiet = true
	}
	c.noteStateChange(inv, inv.state, InvokerGone)
	c.noteBuffer(inv, -len(inv.buffer))
	inv.topic.Unwatch()
	inv.slotted = false
	if c.slots[inv.slot] == inv {
		c.slots[inv.slot] = nil
	}
}

// NewInvoker builds an invoker as the package's NewInvoker does, on one
// handed back by Release when one is spare.
func (c *Controller) NewInvoker(cfg InvokerConfig, seed int64) *Invoker {
	k := len(c.spare)
	if k == 0 {
		return NewInvoker(cfg, seed)
	}
	w := c.spare[k-1]
	c.spare[k-1] = nil
	c.spare = c.spare[:k-1]
	w.reset(cfg, seed)
	return w
}

// Release hands back a gone invoker of this controller for NewInvoker
// to reuse; the caller must hold no reference to it afterwards. Gone
// comes after the invoker's last draw and its last event of its own:
// Kill stops every pending wake-up, execution and checkpoint segment
// and empties running and buffer, deregister runs only once both are
// empty, and poll, Sigterm and Kill on a gone invoker return before
// drawing. Only the controller's drain hop can still be pending, and
// it reads the invoker's slot and topic, so an invoker released before
// the hop has fired goes to the free list from drainCb. An invoker
// that left its slot live is not reused (see clearSlot). Releasing an
// invoker that has not gone panics.
func (c *Controller) Release(w *Invoker) {
	if w.ctrl != c || w.state != InvokerGone || w.slotted {
		panic("whisk: release of an invoker that has not gone from this controller")
	}
	if !w.quiet {
		return
	}
	if w.drainEv.Pending() {
		w.released = true
		return
	}
	c.spare = append(c.spare, w)
}

// Deregister removes an invoker from the slot list. Any stragglers left
// on its topic move to the fast lane first.
func (c *Controller) Deregister(inv *Invoker) {
	inv.topic.MoveAll(c.fastLane)
	c.clearSlot(inv)
}

// DeregisterLossy removes an invoker without rescuing its topic: the
// unmodified-OpenWhisk behavior where a vanished worker's requests are
// never processed and time out (§II). Used by Invoker.Kill for the
// no-hand-off ablation.
func (c *Controller) DeregisterLossy(inv *Invoker) { c.clearSlot(inv) }
