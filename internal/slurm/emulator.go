package slurm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/workload"
)

// Config holds the scheduler parameters of the emulator. The defaults
// (see DefaultConfig) mirror the Prometheus configuration described in
// the paper.
type Config struct {
	// SchedInterval is the nominal period of scheduling passes. A pass
	// whose own duration exceeds the interval delays the next pass —
	// the mechanism behind the var model's coverage loss (§V-B2).
	SchedInterval time.Duration

	// Scheduling-pass cost model: a pass lasts
	// PassBase + PassPerFixedJob·(queued fixed) + PassPerVarJob·(queued
	// variable). Variable-length jobs are far more expensive to place
	// because Slurm schedules them at TimeMin and then tries to extend.
	PassBase        time.Duration
	PassPerFixedJob time.Duration
	PassPerVarJob   time.Duration
}

// DefaultConfig returns the Prometheus-like configuration.
func DefaultConfig() Config {
	return Config{
		SchedInterval:   15 * time.Second,
		PassBase:        500 * time.Millisecond,
		PassPerFixedJob: 10 * time.Millisecond,
		PassPerVarJob:   600 * time.Millisecond,
	}
}

// Prometheus's fixed scheduler settings.
const (
	// grace is the SIGTERM→SIGKILL notice (3 minutes on Prometheus).
	grace = 3 * time.Minute

	// slot is the backfill allocation granularity (2 minutes on
	// Prometheus: job lengths must be even, §IV-B).
	slot = 2 * time.Minute

	// backfillWindow is how far into the future backfill plans
	// (120 minutes on Prometheus).
	backfillWindow = 120 * time.Minute
)

// Emulator is the Slurm controller (slurmctld) emulation.
type Emulator struct {
	sim *des.Sim
	cfg Config
	cl  *cluster.Cluster

	partitions map[string]*Partition

	nextID     int
	pilotQueue []*Job // pending tier-0 jobs, unordered (bestFit scans them all)
	primeQueue []*Job // tier ≥1 FIFO queue (full-scheduler mode)

	// O(1) pilot-queue aggregates, maintained at the queue's only two
	// mutation points (pilotPush, pilotRemove) with values identical to
	// walking pilotQueue — recomputeQueueAggregates is the test oracle.
	// They make passCost and the QueuedPilots* supply-policy signals
	// constant-cost and allocation-free: passCost used to walk the whole
	// queue every scheduling pass, and the by-limit histogram used to be
	// rebuilt into a fresh map every policy tick.
	nFixed    int                   // pending fixed-length tier-0 jobs
	nVariable int                   // pending flexible (--time-min) tier-0 jobs
	byLimit   map[time.Duration]int // fixed jobs per TimeLimit; no zero-count keys

	runningByNode []*Job // pilot or prime job occupying each node

	// Trace mode: the scheduler's declared view of each node's current
	// idle window, and whether trace-driven prime load occupies it.
	declaredEnd []des.Time

	passTicker       des.Event
	runPassFn        func() // cached method values: a pass allocates no closure
	placeFn          func()
	idleSnap         []int // the idle nodes at the last pass's start, sorted
	inTraceMode      bool
	headReservation  reservation
	primePassPending bool

	// Counters for tests and experiment reports.
	Started    int
	Preempted  int
	Cancelled  int
	GracefulEx int
}

// New builds an emulator over a fresh cluster of n nodes.
func New(sim *des.Sim, n int, cfg Config) *Emulator {
	e := &Emulator{
		sim:           sim,
		cfg:           cfg,
		cl:            cluster.New(n),
		partitions:    map[string]*Partition{},
		runningByNode: make([]*Job, n),
		declaredEnd:   make([]des.Time, n),
		byLimit:       map[time.Duration]int{},
	}
	e.runPassFn, e.placeFn = e.runPass, e.place
	return e
}

// Cluster exposes the node-state store (for monitoring perspectives).
func (e *Emulator) Cluster() *cluster.Cluster { return e.cl }

// Sim exposes the simulation handle.
func (e *Emulator) Sim() *des.Sim { return e.sim }

// AddPartition registers a partition.
func (e *Emulator) AddPartition(p Partition) {
	cp := p
	e.partitions[p.Name] = &cp
}

// DriveTrace loads an exogenous availability trace: outside its idle
// periods every node is occupied by untracked prime load. Idle-period
// boundaries become node events; the declared ends feed the scheduler's
// window estimates. Call before Start. A period that ends before it
// starts, which Trace.Validate rejects, panics.
//
// The boundaries are streamed into the queue, not queued up front: one
// cursor walks the periods in start order (ties by index) and keeps
// exactly one start pending, and each start, as it fires, queues its own
// period's end and the next start. The queue then holds one start and the
// end of every open period, not both boundaries of every period in the
// horizon. Each boundary takes a place reserved here (des.Sim.Reserve):
// the period at position k in start order takes place 2k for its start
// and 2k+1 for its end, the sequence numbers queuing both boundaries of
// every period in start order would give them, so every boundary fires
// exactly where it would have fired from such an up-front queue, in ties
// with other events at its instant too. So a period that ends at the
// instant a later-starting period opens ends first, whatever the order
// of tr.Periods.
func (e *Emulator) DriveTrace(tr *workload.Trace) {
	if tr.Nodes != e.cl.Len() {
		panic(fmt.Sprintf("slurm: trace has %d nodes, cluster %d", tr.Nodes, e.cl.Len()))
	}
	e.inTraceMode = true
	// All nodes start busy; idle periods open windows.
	for i := 0; i < e.cl.Len(); i++ {
		e.cl.Set(i, cluster.Busy, e.sim.Now())
	}
	// The driver streams from the emulator's own copy of the periods, so
	// a caller that reuses tr cannot move a boundary still to come.
	d := &traceDriver{e: e, periods: slices.Clone(tr.Periods), order: make([]int, len(tr.Periods))}
	for i, p := range d.periods {
		if p.End < p.Start {
			panic(fmt.Sprintf("slurm: trace period %d (node %d) ends at %v, before its start %v", i, p.Node, p.End, p.Start))
		}
		d.order[i] = i
	}
	slices.SortStableFunc(d.order, func(a, b int) int {
		return cmp.Compare(d.periods[a].Start, d.periods[b].Start)
	})
	d.places = e.sim.Reserve(2 * len(d.periods))
	d.startFn = d.start
	d.endFn = func(p any) { e.traceIdleEnd(p.(*workload.IdlePeriod)) }
	d.queueStart()
}

// traceDriver streams a trace's idle-period boundaries into the queue
// (see DriveTrace).
type traceDriver struct {
	e       *Emulator
	periods []workload.IdlePeriod

	// order lists the period indices in start order, ties by index.
	order []int

	// next is the cursor: the position in start order of the pending
	// start.
	next int

	places         des.Places
	startFn, endFn func(any)
}

// queueStart queues the start at the cursor, if a period is left.
func (d *traceDriver) queueStart() {
	if k := d.next; k < len(d.periods) {
		d.e.sim.ScheduleCallIn(d.places, 2*k, d.periods[d.order[k]].Start, d.startFn, nil)
	}
}

// start fires the start at the cursor: it queues that period's end and
// the next start, then opens the period's window.
func (d *traceDriver) start(any) {
	k := d.next
	d.next++
	p := &d.periods[d.order[k]]
	d.e.sim.ScheduleCallIn(d.places, 2*k+1, p.End, d.endFn, p)
	d.queueStart()
	d.e.traceIdleStart(p)
}

func (e *Emulator) traceIdleStart(p *workload.IdlePeriod) {
	node := p.Node
	if e.runningByNode[node] != nil {
		// A pilot survived into this instant (grace overlap); leave it.
		e.declaredEnd[node] = p.DeclaredEnd
		return
	}
	e.declaredEnd[node] = p.DeclaredEnd
	e.cl.Set(node, cluster.Idle, e.sim.Now())
}

func (e *Emulator) traceIdleEnd(p *workload.IdlePeriod) {
	node := p.Node
	now := e.sim.Now()
	if j := e.runningByNode[node]; j != nil {
		// Prime load reclaims the node: preempt the pilot
		// (PreemptMode=CANCEL with grace).
		e.sigterm(j, ReasonPreempted)
		// The node is handed to the prime workload immediately; the
		// paper argues the ≤3-minute grace delay is insignificant.
		e.detach(j)
	}
	e.declaredEnd[node] = 0
	e.cl.Set(node, cluster.Busy, now)
}

// Start begins periodic scheduling passes.
func (e *Emulator) Start() {
	if e.passTicker.Scheduled() {
		return
	}
	e.schedulePass(e.cfg.SchedInterval)
}

func (e *Emulator) schedulePass(after time.Duration) {
	e.passTicker = e.sim.After(after, e.runPassFn)
}

// runPass models one scheduling pass: it costs time proportional to the
// queue, works from a snapshot of the node states taken at pass start
// (as Slurm's backfill plans from a point-in-time view), and its
// placements take effect at the end of the pass. Nodes that turn idle
// while a pass is in flight wait for the next pass — the staleness that
// makes expensive (variable-length) passes lose coverage (§V-B2).
//
// Every pass snapshots into one reused buffer. That is safe because the
// placement is queued before the next pass, never later than it: when
// both fall on one instant the placement fires first and is done with
// the snapshot before the next pass overwrites it.
func (e *Emulator) runPass() {
	cost := e.passCost()
	e.idleSnap = append(e.idleSnap[:0], e.cl.Nodes(cluster.Idle)...)
	sort.Ints(e.idleSnap)
	e.sim.After(cost, e.placeFn)
	next := e.cfg.SchedInterval
	if cost > next {
		next = cost
	}
	e.schedulePass(next)
}

// place takes effect at the end of a pass: it places prime jobs, then
// pilots on the pass's idle snapshot.
func (e *Emulator) place() {
	e.schedulePrime()
	e.schedulePilotsOn(e.idleSnap)
}

// passCost prices one scheduling pass from the maintained queue
// aggregates — O(1) where it used to walk the entire pilot queue every
// pass.
func (e *Emulator) passCost() time.Duration {
	return e.cfg.PassBase +
		time.Duration(e.nFixed)*e.cfg.PassPerFixedJob +
		time.Duration(e.nVariable)*e.cfg.PassPerVarJob +
		time.Duration(len(e.primeQueue))*e.cfg.PassPerFixedJob
}

// pilotPush enqueues a tier-0 job, maintaining the queue aggregates.
// Every pilotQueue insertion goes through here.
func (e *Emulator) pilotPush(j *Job) {
	e.pilotQueue = append(e.pilotQueue, j)
	if j.Variable() {
		e.nVariable++
	} else {
		e.nFixed++
		e.byLimit[j.Spec.TimeLimit]++
	}
}

// pilotRemove dequeues a tier-0 job by swapping the last entry into
// its place, maintaining the queue aggregates, and reports whether j
// was queued. Every pilotQueue removal goes through here. Zero-count
// histogram keys are deleted so the live map's length and iteration
// match the fresh-map scan it replaced.
func (e *Emulator) pilotRemove(j *Job) bool {
	i := slices.Index(e.pilotQueue, j)
	if i < 0 {
		return false
	}
	last := len(e.pilotQueue) - 1
	e.pilotQueue[i] = e.pilotQueue[last]
	e.pilotQueue[last] = nil
	e.pilotQueue = e.pilotQueue[:last]
	if j.Variable() {
		e.nVariable--
	} else {
		e.nFixed--
		if n := e.byLimit[j.Spec.TimeLimit] - 1; n == 0 {
			delete(e.byLimit, j.Spec.TimeLimit)
		} else {
			e.byLimit[j.Spec.TimeLimit] = n
		}
	}
	return true
}

// recomputeQueueAggregates rebuilds the pilot-queue aggregates by full
// walk — the pre-O(1) implementation, kept as the equivalence oracle
// for the aggregate storm test. Not called on any hot path.
func (e *Emulator) recomputeQueueAggregates() (fixed, variable int, byLimit map[time.Duration]int) {
	byLimit = map[time.Duration]int{}
	for _, j := range e.pilotQueue {
		if j.Variable() {
			variable++
			continue
		}
		fixed++
		byLimit[j.Spec.TimeLimit]++
	}
	return fixed, variable, byLimit
}

// Submit enqueues a job. Tier-0 partitions feed the pilot queue;
// higher tiers feed the prime queue (full-scheduler mode).
func (e *Emulator) Submit(spec JobSpec) *Job {
	p, ok := e.partitions[spec.Partition]
	if !ok {
		panic(fmt.Sprintf("slurm: unknown partition %q", spec.Partition))
	}
	if spec.Nodes <= 0 {
		spec.Nodes = 1
	}
	if spec.TimeLimit <= 0 {
		panic("slurm: job needs a time limit")
	}
	j := &Job{
		ID:        e.nextID,
		Spec:      spec,
		State:     Pending,
		Submitted: e.sim.Now(),
		emu:       e,
	}
	e.nextID++
	if p.PriorityTier == 0 {
		e.pilotPush(j)
	} else {
		e.primeQueue = append(e.primeQueue, j)
	}
	return j
}

// Cancel removes a pending job from its queue. Running jobs are not
// cancelled this way (the HPC-Whisk manager only replaces queued jobs).
func (e *Emulator) Cancel(j *Job) bool {
	if j.State != Pending {
		return false
	}
	if !e.pilotRemove(j) {
		if i := slices.Index(e.primeQueue, j); i >= 0 {
			e.primeQueue = slices.Delete(e.primeQueue, i, i+1)
		}
	}
	j.State = Done
	j.Reason = ReasonCancelled
	j.Ended = e.sim.Now()
	e.Cancelled++
	if j.Spec.OnEnd != nil {
		j.Spec.OnEnd(j, ReasonCancelled)
	}
	return true
}

// QueuedPilots returns the number of pending tier-0 jobs.
func (e *Emulator) QueuedPilots() int { return len(e.pilotQueue) }

// QueuedPilotsByLimit counts pending fixed-length tier-0 jobs per time
// limit. Flexible (--time-min) jobs are excluded: their TimeLimit is
// only an upper bound, so bucketing them with the fixed bags would let
// a hybrid supply policy double-count its two halves.
//
// The returned map is the emulator's live maintained histogram, not a
// copy — the read is O(1) and allocation-free. Contract: callers must
// NOT mutate it, and must expect it to change under them as jobs
// submit, start, or cancel (in particular, a Submit issued while
// iterating updates the map the caller is holding). Keys with a zero
// count are absent, exactly as in the per-call rebuild it replaced.
func (e *Emulator) QueuedPilotsByLimit() map[time.Duration]int {
	return e.byLimit
}

// QueuedFlexiblePilots counts pending flexible (--time-min) tier-0
// jobs. O(1): a maintained aggregate, not a queue walk.
func (e *Emulator) QueuedFlexiblePilots() int { return e.nVariable }

// schedulePilotsOn places tier-0 jobs on the snapshot's idle nodes
// (re-validated against the current state) using the scheduler's
// declared window estimates.
func (e *Emulator) schedulePilotsOn(idle []int) {
	if len(e.pilotQueue) == 0 {
		return
	}
	now := e.sim.Now()
	for _, node := range idle {
		if e.cl.State(node) != cluster.Idle {
			continue // reclaimed while the pass was in flight
		}
		window := e.visibleWindow(node, now)
		if window < slot {
			continue
		}
		j := bestFit(e.pilotQueue, window)
		if j == nil {
			continue
		}
		granted := j.Spec.TimeLimit
		if j.Variable() {
			granted = window
			if granted > j.Spec.TimeLimit {
				granted = j.Spec.TimeLimit
			}
			granted = granted - granted%slot
			if granted < j.Spec.TimeMin {
				continue
			}
		}
		e.pilotRemove(j)
		e.startJob(j, []int{node}, granted, cluster.Pilot)
	}
}

// visibleWindow is the scheduler's belief about how long a node stays
// idle: the declared window end while it lasts, then a rolling single
// slot (the scheduler keeps seeing "idle right now" and plans one slot
// ahead), capped by the backfill window. In full-scheduler mode the
// window is bounded by the head-job reservation (see backfill.go).
func (e *Emulator) visibleWindow(node int, now des.Time) time.Duration {
	var w time.Duration
	if e.inTraceMode {
		decl := e.declaredEnd[node]
		if decl > now {
			w = decl - now
		} else {
			w = slot
		}
	} else {
		w = e.reservationWindow(node, now)
	}
	if w > backfillWindow {
		w = backfillWindow
	}
	return w - w%slot
}

// startJob launches a job on the given nodes.
func (e *Emulator) startJob(j *Job, nodes []int, granted time.Duration, st cluster.State) {
	now := e.sim.Now()
	j.State = Running
	j.Started = now
	j.Granted = granted
	j.NodeIDs = nodes
	for _, n := range nodes {
		e.runningByNode[n] = j
		e.cl.Set(n, st, now)
	}
	e.Started++
	// Natural end: prime jobs complete after their actual runtime;
	// pilots (Runtime == 0) receive SIGTERM at their granted limit.
	if j.Spec.Runtime > 0 && j.Spec.Runtime <= granted {
		j.endEvent = e.sim.After(j.Spec.Runtime, func() { e.finish(j, ReasonCompleted) })
	} else {
		j.endEvent = e.sim.After(granted, func() { e.sigterm(j, ReasonTimeout) })
	}
	if j.Spec.OnStart != nil {
		j.Spec.OnStart(j)
	}
}

// sigterm delivers the grace-period warning and arms the SIGKILL. A job
// with no SIGTERM handler dies immediately (like a plain batch script);
// a job with a handler (the HPC-Whisk invoker) lingers until it calls
// Exit or the grace period expires.
func (e *Emulator) sigterm(j *Job, reason EndReason) {
	if j.State != Running {
		return
	}
	now := e.sim.Now()
	j.State = Completing
	j.Reason = reason
	j.endEvent.Stop()
	if j.Spec.OnSigterm == nil {
		e.finish(j, reason)
		return
	}
	j.killEv = e.sim.After(grace, func() { e.finish(j, reason) })
	j.Spec.OnSigterm(j, now)
}

// detach releases a job's nodes without ending the job (used when prime
// load reclaims nodes while the job drains through its grace period).
// Node states are updated by the caller. startJob is the only code that
// puts a job into runningByNode, and it puts it exactly on j.NodeIDs.
func (e *Emulator) detach(j *Job) {
	for _, n := range j.NodeIDs {
		e.runningByNode[n] = nil
	}
	j.NodeIDs = j.NodeIDs[:0]
}

// finish ends a job and frees any nodes it still holds.
func (e *Emulator) finish(j *Job, reason EndReason) {
	if j.State == Done {
		return
	}
	now := e.sim.Now()
	wasCompleting := j.State == Completing
	j.State = Done
	j.Reason = reason
	j.Ended = now
	j.endEvent.Stop()
	j.killEv.Stop()
	for _, n := range j.NodeIDs {
		if e.runningByNode[n] != j {
			continue
		}
		e.runningByNode[n] = nil
		if e.inTraceMode {
			// The node returns to idle if its window is still open
			// (the trace's idle-end event will mark it busy otherwise).
			e.cl.Set(n, cluster.Idle, now)
		} else {
			e.cl.Set(n, cluster.Idle, now)
			e.onPrimeNodeFree()
		}
	}
	if reason == ReasonPreempted {
		e.Preempted++
	}
	if wasCompleting && j.GracefulExit {
		e.GracefulEx++
	}
	if j.Spec.OnEnd != nil {
		j.Spec.OnEnd(j, reason)
	}
}

// bestFit returns the pending job that goes first under before among
// those whose limit fits the window (for the fib manager, priority ∝
// length, so this is the greedy longest-fits choice of §III-D).
// Variable-length jobs fit if their TimeMin does. before is a strict
// total order, so the pick does not depend on the queue's order.
func bestFit(queue []*Job, window time.Duration) *Job {
	var best *Job
	for _, j := range queue {
		need := j.Spec.TimeLimit
		if j.Variable() {
			need = j.Spec.TimeMin
		}
		if need > window {
			continue
		}
		if best == nil || before(j, best) {
			best = j
		}
	}
	return best
}

// before is the pilot queue's order: higher Priority first, then
// earlier submission, then the lower (unique) ID.
func before(a, b *Job) bool {
	if a.Spec.Priority != b.Spec.Priority {
		return a.Spec.Priority > b.Spec.Priority
	}
	return a.Submitted < b.Submitted || (a.Submitted == b.Submitted && a.ID < b.ID)
}
