package whisk

import (
	"math/rand"
	"time"

	"repro/internal/bus"
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/dist"
)

// InvokerState is the controller-visible status of a worker, reported
// continuously by the extended status messages of §III-C.
type InvokerState uint8

// Worker states: Healthy accepts and executes work; Draining received
// SIGTERM and hands off its queue; Gone deregistered (or was killed).
const (
	InvokerHealthy InvokerState = iota
	InvokerDraining
	InvokerGone
)

// String implements fmt.Stringer.
func (s InvokerState) String() string {
	switch s {
	case InvokerHealthy:
		return "healthy"
	case InvokerDraining:
		return "draining"
	case InvokerGone:
		return "gone"
	default:
		return "unknown"
	}
}

// InvokerConfig models one OpenWhisk invoker on a cluster node.
type InvokerConfig struct {
	// Capacity is the maximum number of concurrently running container
	// processes (the limit whose saturation caused failed invocations
	// in §V-C).
	Capacity int

	// PoolLimit caps total containers (warm idle + running); creating
	// past it evicts the least-recently-used idle container.
	PoolLimit int

	// PollInterval is the topic-pull period: the pickup delay of work
	// that is not pulled on delivery. An invoker polls on the grid
	// attach + k·PollInterval (k ≥ 1), but only at grid instants where
	// the fast lane or its own topic holds messages; the fast lane is
	// always pulled before the invoker's own topic (§III-C).
	PollInterval time.Duration

	// PullBatch bounds messages taken per poll.
	PullBatch int

	// BufferLimit bounds the internal buffer; arrivals beyond it fail
	// immediately (container-limit pressure).
	BufferLimit int

	// FailureProb is the base probability an execution errors.
	FailureProb float64
}

// DefaultInvokerConfig returns a Prometheus-node-like invoker model
// (24-core node hosting up to 16 concurrent function containers).
func DefaultInvokerConfig() InvokerConfig {
	return InvokerConfig{
		Capacity:     16,
		PoolLimit:    48,
		PollInterval: 100 * time.Millisecond,
		PullBatch:    16,
		BufferLimit:  128,
		FailureProb:  0.01,
	}
}

// Container start latencies, in seconds, typed dist.Uniform so each
// dist.Seconds draw inlines and devirtualizes.
var (
	coldStartSeconds = dist.Uniform{Lo: 0.35, Hi: 0.70}   // container creation (≈0.5 s, §II)
	warmStartSeconds = dist.Uniform{Lo: 0.005, Hi: 0.025} // dispatch into a warm container
)

// Invoker executes invocations on one node. It pulls the global fast
// lane before its own topic, keeps per-action warm containers, and
// implements the hand-off protocol when its pilot job gets SIGTERM.
//
// The dispatch/execute loop is allocation-free in steady state: polls
// pull straight into the reusable buffer (bus.PullAppend), execution
// completion is a typed-arg des event on a cached method value, and
// the start latencies draw from rng.
type Invoker struct {
	cfg InvokerConfig
	rng *rand.Rand // draws what dist.NewRand(seed) draws

	execDoneFn func(any) // cached method value for execution completion
	ckptDoneFn func(any) // cached method value for checkpoint-segment boundaries

	// ckptRng is the checkpoint subsystem's private stream, forked off
	// rng lazily by checkpointRng the first time a checkpointed
	// execution dispatches (ckptForked) — so deployments without
	// checkpointing draw the exact sequence they always did. A reused
	// invoker keeps the stream of an earlier life and reseeds it.
	ckptRng    *rand.Rand
	ckptForked bool

	ctrl    *Controller
	slot    int
	topic   *bus.Topic[*Invocation]
	state   InvokerState
	slotted bool // occupies a controller slot; gates all aggregate updates

	buffer  []*Invocation
	running []*Invocation // insertion order (determinism matters)

	rejectBuf []*Invocation // scratch for the over-pressure drop path

	pool       []*containerSet // by action index, grown on demand; nil until the action first runs on the pool
	idleHeap   []*containerSet // min-heap over sets with idle > 0, keyed (lastUsed, name)
	containers int             // total containers (idle + busy)

	// Poll wake-ups (see arm). attachedAt anchors the poll grid; wake is
	// the one pending wake-up.
	attachedAt des.Time
	wake       des.Event
	pollFn     func() // cached method value: wake-ups and deliveries

	onDrained func()

	// drainEv is the controller's drain hop after a SIGTERM (drainCb),
	// which reads the invoker's slot and topic and so keeps it from
	// reuse until it has fired. quiet records that the invoker left its
	// slot gone, so that its topic no longer calls it; released, that it
	// was handed back while its drain hop was pending (see
	// Controller.Release).
	drainEv  des.Event
	quiet    bool
	released bool

	// Counters.
	ColdStarts  int
	WarmStarts  int
	Rejected    int
	Checkpoints int // completed checkpoint dumps
	Resumed     int // executions restored from a checkpoint here
}

type containerSet struct {
	name     string
	idle     int
	busy     int
	lastUsed des.Time
	heapIdx  int // position in the invoker's idle min-heap; -1 when idle == 0
}

// NewInvoker builds an invoker; it is inert until registered with a
// controller, and cannot register again once it has retired. Its
// stream draws what dist.NewRand(seed) draws. Controller.NewInvoker
// builds the same invoker on the storage of one handed back by
// Controller.Release, so pilot churn allocates about as many invokers
// as are ever registered at once, not one per boot. It panics on a configuration that
// cannot make progress: no capacity, no poll interval, or an empty pull
// batch.
func NewInvoker(cfg InvokerConfig, seed int64) *Invoker {
	w := new(Invoker)
	w.reset(cfg, seed)
	return w
}

// reset makes w the invoker NewInvoker(cfg, seed) builds. A released
// invoker keeps its storage: its streams (reseeded), its container
// pool with every set reset to a fresh one's state, its idle heap and
// slices emptied, and its cached method values. Each set keeps its
// name: an action index names the same action on every invoker of a
// controller.
func (w *Invoker) reset(cfg InvokerConfig, seed int64) {
	if cfg.Capacity <= 0 {
		panic("whisk: invoker needs capacity")
	}
	if cfg.PollInterval <= 0 {
		panic("whisk: invoker needs a positive poll interval")
	}
	if cfg.PullBatch <= 0 {
		panic("whisk: invoker needs a positive pull batch")
	}
	old := *w
	for _, cs := range old.pool {
		if cs != nil {
			cs.idle, cs.busy, cs.lastUsed, cs.heapIdx = 0, 0, 0, -1
		}
	}
	clear(old.idleHeap)
	*w = Invoker{
		cfg:        cfg,
		rng:        seeded(old.rng, seed),
		execDoneFn: old.execDoneFn,
		ckptDoneFn: old.ckptDoneFn,
		ckptRng:    old.ckptRng,
		slot:       -1,
		state:      InvokerGone,
		buffer:     old.buffer[:0],
		running:    old.running[:0],
		rejectBuf:  old.rejectBuf[:0],
		pool:       old.pool,
		idleHeap:   old.idleHeap[:0],
		pollFn:     old.pollFn,
	}
	if w.pollFn == nil {
		w.execDoneFn = w.execDone
		w.ckptDoneFn = w.ckptDone
		w.pollFn = w.poll
	}
}

// seeded returns r restarted at seed, or a new stream when r is nil:
// either draws what dist.NewRand(seed) draws.
func seeded(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return dist.NewRand(seed)
	}
	dist.Reseed(r, seed)
	return r
}

// attach is called by Controller.Register. The controller's population
// aggregates pick the invoker up here, and the topic watcher arms so
// deliveries flow into the backlog aggregate (including any messages
// already rotting on the topic from a previous occupant of the slot,
// exactly as the slot scan re-counted them). The poll grid starts here,
// and a first wake-up arms if work is already waiting.
func (w *Invoker) attach(c *Controller, slot int) {
	if w.ctrl != nil && w.state == InvokerGone {
		panic("whisk: a retired invoker cannot register again")
	}
	w.ctrl = c
	w.slot = slot
	w.state = InvokerHealthy
	w.slotted = true
	c.noteStateChange(w, InvokerGone, InvokerHealthy)
	w.topic = c.topics[slot]
	w.topic.Watch(&c.backlog)
	w.topic.OnDelivery(w.pollFn)
	w.attachedAt = c.sim.Now()
	w.arm()
}

// State returns the worker status.
func (w *Invoker) State() InvokerState { return w.state }

// Buffered returns the number of pulled-but-not-started messages.
func (w *Invoker) Buffered() int { return len(w.buffer) }

// hasWork reports whether a poll would pull anything: the fast lane or
// the invoker's own topic holds messages. (A poll that finds only a
// non-empty buffer does nothing: every poll and every completion of a
// healthy invoker ends in dispatch, so a buffered message means every
// execution slot is busy.)
func (w *Invoker) hasWork() bool {
	return w.ctrl.fastLane.Len() > 0 || w.topic.Len() > 0
}

// arm schedules the invoker's next poll wake-up if it holds a slot,
// accepts work, has work queued and has no wake-up pending. The invoker
// models a poll loop on the grid attachedAt + k·PollInterval (k ≥ 1) of
// which only the polls that find work are simulated, so the wake-up
// lands on the first grid instant after now.
func (w *Invoker) arm() {
	if !w.slotted || w.state != InvokerHealthy || w.wake.Pending() || !w.hasWork() {
		return
	}
	sim := w.ctrl.sim
	now, iv := sim.Now(), w.cfg.PollInterval
	w.wake = sim.Schedule(now-(now-w.attachedAt)%iv+iv, w.pollFn)
}

// poll pulls the fast lane first, then the invoker's own topic, and
// dispatches as capacity allows (§III-C). It runs on every delivery to
// the invoker's own topic and on every poll wake-up; a poll that leaves
// work queued arms the next wake-up.
func (w *Invoker) poll() {
	if w.state != InvokerHealthy {
		return
	}
	room := w.cfg.BufferLimit - len(w.buffer)
	batch := w.cfg.PullBatch
	if batch > room {
		batch = room
	}
	if batch > 0 {
		before := len(w.buffer)
		w.buffer = w.ctrl.fastLane.PullAppend(w.buffer, batch)
		if got := len(w.buffer) - before; got < batch {
			w.buffer = w.topic.PullAppend(w.buffer, batch-got)
		}
		// Own-topic pulls canceled out by the topic watcher; fast-lane
		// pulls are a net backlog increase, as in the scan.
		w.ctrl.noteBuffer(w, len(w.buffer)-before)
	}
	// Container-limit pressure: drop what cannot even be buffered.
	if room <= 0 {
		w.rejectBuf = w.topic.PullAppend(w.rejectBuf[:0], w.cfg.PullBatch)
		for i, inv := range w.rejectBuf {
			w.rejectBuf[i] = nil
			w.Rejected++
			w.ctrl.finishFromInvoker(inv, false)
			w.ctrl.release(inv) // the dropped call's topic reference
		}
		w.rejectBuf = w.rejectBuf[:0]
	}
	w.dispatch()
	w.arm()
}

func (w *Invoker) dispatch() {
	for len(w.buffer) > 0 && len(w.running) < w.cfg.Capacity {
		inv := w.buffer[0]
		copy(w.buffer, w.buffer[1:])
		w.buffer[len(w.buffer)-1] = nil
		w.buffer = w.buffer[:len(w.buffer)-1]
		w.ctrl.noteBuffer(w, -1)
		if inv.Status != StatusPending {
			// Already timed out at the controller; dropping the buffer's
			// reference may recycle the invocation.
			w.ctrl.release(inv)
			continue
		}
		// The buffer's reference transfers to the running list.
		w.execute(inv)
	}
}

func (w *Invoker) execute(inv *Invocation) {
	sim := w.ctrl.sim
	inv.InvokerID = w.slot
	w.running = append(w.running, inv)
	w.ctrl.noteRunning(w, 1)

	start := w.acquireContainer(inv)
	inv.ColdStart = inv.ColdStart || start.cold

	if m := inv.Action.Checkpoint; m.Enabled() && inv.Action.Interruptible {
		w.executeCheckpointed(inv, m, start)
		return
	}
	body := inv.Action.Exec(w.rng)
	total := start.delay + body
	inv.execStartAt = sim.Now() + start.delay // execution body begins after startup
	w.ctrl.retain(inv)                        // the completion event
	inv.execEv = sim.AfterCall(total, w.execDoneFn, inv)
}

// checkpointRng lazily forks the checkpoint subsystem's private stream
// off the invoker's main stream, as dist.Split does: one parent draw
// seeds it. The fork happens only when a checkpointed execution first
// dispatches, so configurations without checkpointing keep their draw
// sequence — and the committed goldens — byte-identical.
func (w *Invoker) checkpointRng() *rand.Rand {
	if !w.ckptForked {
		w.ckptRng = seeded(w.ckptRng, w.rng.Int63())
		w.ckptForked = true
	}
	return w.ckptRng
}

// executeCheckpointed runs one attempt of a checkpointed execution as
// a chain of segment events: each segment is min(interval, remaining)
// of body work, followed by a dump pause at ckptDone until the body
// completes. A resume (Progress > 0) first pays the state-transfer +
// restore cost for the last checkpoint.
func (w *Invoker) executeCheckpointed(inv *Invocation, m *checkpoint.Model, start containerStart) {
	sim := w.ctrl.sim
	rng := w.checkpointRng()
	if inv.bodyTotal == 0 {
		// First attempt: draw the body once (off the main stream, like
		// every execution) and remember it — a resume continues this
		// body instead of redrawing it.
		inv.bodyTotal = inv.Action.Exec(w.rng)
	}
	pre := start.delay
	if inv.Progress > 0 {
		restore := m.RestoreTime(inv.StateMB, rng)
		pre += restore
		inv.Resumes++
		w.Resumed++
		w.ctrl.Work.Resumed++
		w.ctrl.Work.RestoreTime += restore
	}
	remaining := inv.bodyTotal - inv.Progress
	seg := m.NextInterval(rng)
	if seg > remaining {
		seg = remaining
	}
	inv.segWork = seg
	inv.execStartAt = sim.Now() + pre
	inv.segStartAt = inv.execStartAt
	w.ctrl.retain(inv) // the in-flight segment event
	inv.execEv = sim.AfterCall(pre+seg, w.ckptDoneFn, inv)
}

// ckptDone fires at every segment boundary of a checkpointed
// execution: either the body is complete (finish, as in execDone), or a
// checkpoint is dumped and the next segment is scheduled — the
// boundary event's reference carries over to the next segment, so the
// refcount discipline matches a plain execution's single completion
// event.
func (w *Invoker) ckptDone(v any) {
	inv := v.(*Invocation)
	inv.Progress += inv.segWork
	if inv.Progress >= inv.bodyTotal {
		w.finish(inv, inv.bodyTotal)
		return
	}
	m := inv.Action.Checkpoint
	rng := w.checkpointRng()
	cost := m.CostTime(rng)
	inv.StateMB = m.StateSizeMB(rng)
	w.Checkpoints++
	w.ctrl.Work.Checkpoints++
	w.ctrl.Work.CheckpointTime += cost
	remaining := inv.bodyTotal - inv.Progress
	seg := m.NextInterval(rng)
	if seg > remaining {
		seg = remaining
	}
	inv.segWork = seg
	inv.segStartAt = w.ctrl.sim.Now() + cost
	inv.execEv = w.ctrl.sim.AfterCall(cost+seg, w.ckptDoneFn, inv)
}

// execDone is the typed-arg completion callback of every
// non-checkpointed execution.
func (w *Invoker) execDone(v any) {
	inv := v.(*Invocation)
	w.finish(inv, w.ctrl.sim.Now()-inv.execStartAt)
}

// finish completes an execution whose body is done, crediting goodput
// to the work ledger, and frees the invoker for its next message.
func (w *Invoker) finish(inv *Invocation, goodput time.Duration) {
	w.ctrl.Work.Goodput += goodput
	inv.Executed = inv.execStartAt
	w.removeRunning(inv)
	w.ctrl.release(inv) // the running list's reference
	w.releaseContainer(inv)
	w.ctrl.finishFromInvoker(inv, w.rng.Float64() >= w.cfg.FailureProb)
	w.ctrl.release(inv) // the completion event's reference
	if w.state == InvokerHealthy {
		w.dispatch()
	} else {
		w.maybeDrained()
	}
}

type containerStart struct {
	cold  bool
	delay time.Duration
}

// acquireContainer finds or creates a container for the action,
// maintaining the idle min-heap: a set whose last idle container is
// taken leaves the heap; one staying warm sifts down for its fresher
// lastUsed key.
func (w *Invoker) acquireContainer(inv *Invocation) containerStart {
	now := w.ctrl.sim.Now()
	if inv.action >= len(w.pool) {
		// One allocation for every action deployed so far: growing
		// index by index would leave a trail of outgrown slices.
		w.pool = append(w.pool, make([]*containerSet, len(w.ctrl.actionList)-len(w.pool))...)
	}
	cs := w.pool[inv.action]
	if cs == nil {
		cs = &containerSet{name: inv.Action.Name, heapIdx: -1}
		w.pool[inv.action] = cs
	}
	cs.lastUsed = now
	if cs.idle > 0 {
		cs.idle--
		cs.busy++
		if cs.idle == 0 {
			w.idleHeapRemove(cs)
		} else {
			// The key only grew (sim time is monotone), so the heap
			// property can break downward only.
			w.idleHeapDown(cs.heapIdx)
		}
		w.WarmStarts++
		return containerStart{cold: false, delay: dist.Seconds(warmStartSeconds, w.rng)}
	}
	// Need a new container; evict an idle one if the pool is full.
	if w.containers >= w.cfg.PoolLimit {
		w.evictLRUIdle()
	}
	w.containers++
	cs.busy++
	w.ColdStarts++
	return containerStart{cold: true, delay: dist.Seconds(coldStartSeconds, w.rng)}
}

func (w *Invoker) releaseContainer(inv *Invocation) {
	cs := w.pool[inv.action]
	if cs.busy == 0 {
		return
	}
	cs.busy--
	cs.idle++
	if cs.idle == 1 {
		w.idleHeapPush(cs)
	}
}

// evictLRUIdle drops the least-recently-used idle container: the root
// of the idle min-heap, whose (lastUsed, name) key is a strict total
// order (names are unique), so the root is exactly the minimum a scan
// of the pool finds — recomputeEvictionVictim pins the equivalence in
// tests. O(log sets) instead of O(sets).
func (w *Invoker) evictLRUIdle() {
	if len(w.idleHeap) == 0 {
		return
	}
	victim := w.idleHeap[0]
	victim.idle--
	if victim.idle == 0 {
		w.idleHeapRemove(victim)
	}
	w.containers--
}

// recomputeEvictionVictim is the eviction oracle: the pre-heap scan
// over the pool, returning the idle set with the minimum (lastUsed,
// name) key, or nil if none is idle. The key is a strict total order,
// so scan order cannot change the result. Tests compare it against the
// heap root; it is not called on any hot path.
func (w *Invoker) recomputeEvictionVictim() *containerSet {
	var victim *containerSet
	for _, cs := range w.pool {
		if cs == nil || cs.idle == 0 {
			continue
		}
		if victim == nil || idleLess(cs, victim) {
			victim = cs
		}
	}
	return victim
}

// idleLess is the eviction order: least recently used first, name as
// the deterministic tiebreak.
func idleLess(a, b *containerSet) bool {
	return a.lastUsed < b.lastUsed || (a.lastUsed == b.lastUsed && a.name < b.name)
}

func (w *Invoker) idleHeapPush(cs *containerSet) {
	cs.heapIdx = len(w.idleHeap)
	w.idleHeap = append(w.idleHeap, cs)
	w.idleHeapUp(cs.heapIdx)
}

func (w *Invoker) idleHeapRemove(cs *containerSet) {
	i := cs.heapIdx
	last := len(w.idleHeap) - 1
	w.idleHeap[i] = w.idleHeap[last]
	w.idleHeap[i].heapIdx = i
	w.idleHeap[last] = nil
	w.idleHeap = w.idleHeap[:last]
	cs.heapIdx = -1
	if i < last {
		if !w.idleHeapDown(i) {
			w.idleHeapUp(i)
		}
	}
}

func (w *Invoker) idleHeapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !idleLess(w.idleHeap[i], w.idleHeap[parent]) {
			return
		}
		w.idleHeapSwap(i, parent)
		i = parent
	}
}

func (w *Invoker) idleHeapDown(i int) bool {
	moved := false
	n := len(w.idleHeap)
	for {
		kid := 2*i + 1
		if kid >= n {
			return moved
		}
		if r := kid + 1; r < n && idleLess(w.idleHeap[r], w.idleHeap[kid]) {
			kid = r
		}
		if !idleLess(w.idleHeap[kid], w.idleHeap[i]) {
			return moved
		}
		w.idleHeapSwap(i, kid)
		i = kid
		moved = true
	}
}

func (w *Invoker) idleHeapSwap(i, j int) {
	h := w.idleHeap
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (w *Invoker) removeRunning(inv *Invocation) {
	for i, r := range w.running {
		if r == inv {
			w.running = append(w.running[:i], w.running[i+1:]...)
			w.ctrl.noteRunning(w, -1)
			return
		}
	}
}

// Sigterm runs the hand-off protocol of §III-C: stop accepting work,
// notify the controller (which moves unpulled topic messages to the
// fast lane), flush the internal buffer to the fast lane, optionally
// interrupt running executions of interrupt-safe actions, and call
// onDrained once nothing local remains.
func (w *Invoker) Sigterm(interruptRunning bool, onDrained func()) {
	if w.state != InvokerHealthy {
		return
	}
	w.state = InvokerDraining
	// Aggregate bookkeeping happens while w.running is still intact: the
	// Healthy→Draining transition removes this invoker's in-flight
	// executions from the busy aggregate, exactly as the scan stopped
	// counting them.
	w.ctrl.noteStateChange(w, InvokerHealthy, InvokerDraining)
	w.onDrained = onDrained
	w.wake.Stop()
	// The controller stops routing to a draining invoker at once (it
	// reads the state), but acts on the SIGTERM only once the status
	// message reaches it: statusLatency later, drainCb moves the
	// unpulled messages from the topic to the fast lane (§III-C).
	w.drainEv = w.ctrl.sim.AfterCall(statusLatency, w.ctrl.drainFn, w)

	// Flush the unexecuted buffer to the fast lane (which the backlog
	// aggregate does not cover — FastLaneDepth is its own signal).
	if len(w.buffer) > 0 {
		for _, inv := range w.buffer {
			inv.Requeues++
		}
		w.ctrl.noteBuffer(w, -len(w.buffer))
		w.ctrl.fastLane.Requeue(w.buffer...)
		clear(w.buffer)
		w.buffer = w.buffer[:0]
	}

	if interruptRunning {
		// In insertion order; removeRunning takes out the entry at i,
		// and nothing else changes the list while it is walked.
		for i := 0; i < len(w.running); {
			inv := w.running[i]
			if !inv.Action.Interruptible {
				i++
				continue
			}
			if inv.execEv.Stop() {
				w.ctrl.release(inv) // the canceled completion event
			}
			w.accountInterrupt(inv)
			w.removeRunning(inv)
			w.releaseContainer(inv)
			inv.Requeues++
			// Retain for the fast-lane place BEFORE dropping the running
			// list's reference: an interruptible execution whose client
			// timeout already completed holds no other reference, and
			// releasing first would recycle the object mid-loop. The dead
			// call still travels the fast lane exactly as it always did
			// (occupying pull quota until dispatch skips it), and its
			// consumer's release recycles the invocation then.
			// For a checkpointed execution the requeued invocation IS the
			// resume token — Progress/StateMB ride along, and the next
			// invoker's execute restores from the last checkpoint.
			w.ctrl.retain(inv)
			w.ctrl.release(inv) // the running list's reference
			w.ctrl.fastLane.Requeue(inv)
		}
	}
	w.maybeDrained()
}

// accountInterrupt books the execution-body time an interrupt throws
// away. A checkpointed execution loses only the work since its last
// checkpoint (Wasted — the rest survives in the resume token); an
// execution without checkpoints loses all elapsed progress (Lost —
// the requeued attempt restarts from scratch). Pure accounting: no
// draws, no events, so golden-pinned runs are unaffected.
func (w *Invoker) accountInterrupt(inv *Invocation) {
	now := w.ctrl.sim.Now()
	if inv.Action.Checkpoint.Enabled() {
		done := now - inv.segStartAt
		if done < 0 {
			done = 0 // still in start-up, restore, or a dump pause
		}
		if done > inv.segWork {
			done = inv.segWork
		}
		w.ctrl.Work.Wasted += done
		return
	}
	done := now - inv.execStartAt
	if done < 0 {
		done = 0
	}
	w.ctrl.Work.Lost += done
}

// accountKill books the execution-body time a hard kill destroys:
// everything, checkpointed or not — nothing is handed off. (A
// checkpointed invocation keeps its Progress, so a client-side
// wrapper may still resume it on the cloud fallback after the
// timeout; the pilot-side ledger writes the on-cluster work off.)
func (w *Invoker) accountKill(inv *Invocation) {
	now := w.ctrl.sim.Now()
	lost := inv.Progress
	var done time.Duration
	if inv.Action.Checkpoint.Enabled() && inv.Action.Interruptible {
		done = now - inv.segStartAt
		if done > inv.segWork {
			done = inv.segWork
		}
	} else {
		done = now - inv.execStartAt
	}
	if done > 0 {
		lost += done
	}
	w.ctrl.Work.Lost += lost
}

func (w *Invoker) maybeDrained() {
	if w.state == InvokerDraining && len(w.running) == 0 && len(w.buffer) == 0 {
		w.deregister()
	}
}

// deregister completes the hand-off: the worker leaves the slot list.
func (w *Invoker) deregister() {
	if w.state == InvokerGone {
		return
	}
	w.ctrl.noteStateChange(w, w.state, InvokerGone)
	w.state = InvokerGone
	w.ctrl.Deregister(w)
	w.drained()
}

// drained calls the hand-off's onDrained callback, at most once.
func (w *Invoker) drained() {
	if fn := w.onDrained; fn != nil {
		w.onDrained = nil
		fn()
	}
}

// Kill models SIGKILL with work still on board (no graceful hand-off,
// e.g. the ablation without the HPC-Whisk modifications): buffered and
// running invocations are lost and surface as controller timeouts.
func (w *Invoker) Kill() {
	if w.state == InvokerGone {
		return
	}
	// Booked before running/buffer are torn down: a kill from Healthy
	// drops len(running) executions out of the busy aggregate in one
	// step.
	w.ctrl.noteStateChange(w, w.state, InvokerGone)
	w.wake.Stop()
	for _, inv := range w.running {
		if inv.execEv.Stop() {
			w.ctrl.release(inv) // the canceled completion event
		}
		w.accountKill(inv)
		w.ctrl.release(inv) // the running list's reference
	}
	clear(w.running)
	w.running = w.running[:0]
	w.ctrl.noteBuffer(w, -len(w.buffer))
	for _, inv := range w.buffer {
		w.ctrl.release(inv) // the dropped call's buffer reference
	}
	clear(w.buffer)
	w.buffer = w.buffer[:0]
	w.state = InvokerGone
	// A killed worker cannot hand anything off: its topic messages rot
	// until the controller-side timeouts fire, exactly the unmodified-
	// OpenWhisk failure mode described in §II.
	w.ctrl.DeregisterLossy(w)
	w.drained()
}
