// Package core implements the primary contribution of the paper: the
// HPC-Whisk layer that turns transient idle HPC nodes into OpenWhisk
// workers. It contains the policy-agnostic pilot-job engine (the
// supply decision itself lives behind policy.SupplyPolicy — the
// paper's fib and var models of §III-D are two registered policies),
// the invoker lifecycle (warm-up → register → healthy → SIGTERM
// hand-off → deregister, §III-C), the client-side fallback wrapper of
// Alg. 1 (§III-E), and the monitoring perspectives used by the paper's
// evaluation (§IV-A).
package core

import (
	"math/rand"
	"time"

	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/policy"
	"repro/internal/slurm"
	"repro/internal/stats"
	"repro/internal/whisk"
)

// SetA1 is the job-length set the paper selected for the fib model
// (Table I, set A1).
var SetA1 = policy.SetA1

// ManagerConfig parameterizes the HPC-Whisk job manager.
type ManagerConfig struct {
	// Policy is the pilot-supply policy (required; fib and var model
	// knobs live in policy.FibConfig and policy.VarConfig).
	Policy policy.SupplyPolicy

	// GracefulHandoff enables the §III-C hand-off; disabling it is the
	// unmodified-OpenWhisk ablation where SIGTERM just kills the worker.
	GracefulHandoff bool

	// InterruptRunning enables interrupting in-flight executions of
	// interrupt-safe actions during hand-off.
	InterruptRunning bool
}

// DefaultManagerConfig returns the paper's manager configuration with
// the named pilot-supply policy from the policy registry ("fib",
// "var", "adaptive", ...). Unknown names panic; validate with
// policy.New first when the name comes from user input.
func DefaultManagerConfig(policyName string) ManagerConfig {
	return ManagerConfig{
		Policy:           policy.MustNew(policyName),
		GracefulHandoff:  true,
		InterruptRunning: true,
	}
}

// pilotPartition is the tier-0 Slurm partition pilots are submitted to.
const pilotPartition = "whisk"

// replenishPeriod is the queue top-up period (15 s in the paper).
const replenishPeriod = 15 * time.Second

// warmupSeconds is the invoker boot-to-healthy time distribution
// (§IV-B: median 12.48 s, p95 26.5 s).
var warmupSeconds = dist.WarmupSeconds()

// drainExitDelay is the local cleanup time between finishing the
// hand-off and the pilot job exiting.
const drainExitDelay = 2 * time.Second

// policySeedOffset decorrelates the policy's private random stream
// from the manager's warm-up/invoker stream (both pass through the
// splitmix64 finalizer, so any fixed offset yields independent
// streams).
const policySeedOffset = 7919

// pilotPhase tracks where a pilot job is in the invoker lifecycle.
type pilotPhase uint8

const (
	phaseWarming pilotPhase = iota
	phaseHealthy
	phaseDraining
	phaseDone
)

// pilot is the manager's record of one started pilot job. Records go
// back to the manager's free list, the job to the emulator and the
// invoker to the controller once the pilot has ended and the last
// event holding the record has fired (see onEnd and exitCb).
type pilot struct {
	m         *PilotManager
	job       *slurm.Job
	phase     pilotPhase
	invoker   *whisk.Invoker
	warmupEv  des.Event
	exitEv    des.Event // the delayed exit after a SIGTERM or a drain
	healthyAt des.Time

	drainedFn func() // cached method value: the invoker's drain-complete callback
}

// PilotManager is the external job manager of §III-D: the
// policy-agnostic engine that keeps the Slurm queue stocked with
// preemptible tier-0 pilot jobs (what to stock is the supply policy's
// decision) and runs each started pilot through the invoker lifecycle
// against the controller.
type PilotManager struct {
	sim    *des.Sim
	emu    *slurm.Emulator
	ctrl   *whisk.Controller
	cfg    ManagerConfig
	rng    *rand.Rand
	policy policy.SupplyPolicy

	pilots  map[*slurm.Job]*pilot
	pending []*slurm.Job // this manager's queued, not-yet-started jobs
	spare   []*pilot     // ended pilots' records, for onPilotStart to reuse
	ticker  *des.Ticker

	// spec is every pilot's job spec up to its length: the job name and
	// the lifecycle hooks are built once per manager, not per submit.
	spec slurm.JobSpec

	// Cached typed-arg callbacks: one per manager, not per pilot.
	warmupFn, exitFn func(any)

	// States tracks the OpenWhisk-level worker-state shares of
	// Tables II/III (warming / healthy / irresponsive counts over time).
	States *WorkerStates

	// ReadySpans samples, in seconds, how long each invoker stayed
	// healthy (the paper: fib mean >23 min, var mean >14 min).
	ReadySpans stats.Sample

	// Counters.
	Submitted        int
	PilotsStarted    int
	Registered       int
	Handoffs         int
	KilledInWarmup   int
	KilledUngraceful int
}

// newPilotManager wires a manager to a Slurm emulator and controller.
// seed roots the manager's warm-up/invoker stream and, at a fixed
// offset, the policy's. streaming switches the worker-state series to
// O(1)-memory accounting (see NewWorkerStatesStreaming); pilot
// behavior, RNG draws and event order are unaffected — only what the
// accounting retains.
func newPilotManager(emu *slurm.Emulator, ctrl *whisk.Controller, cfg ManagerConfig, seed int64, streaming bool) *PilotManager {
	if cfg.Policy == nil {
		panic("core: ManagerConfig.Policy is nil (build configs with DefaultManagerConfig)")
	}
	cfg.Policy.Init(dist.NewRand(seed + policySeedOffset))
	m := &PilotManager{
		sim:    emu.Sim(),
		emu:    emu,
		ctrl:   ctrl,
		cfg:    cfg,
		rng:    dist.NewRand(seed),
		policy: cfg.Policy,
		pilots: map[*slurm.Job]*pilot{},
		States: NewWorkerStatesStreaming(streaming),
	}
	m.spec = slurm.JobSpec{
		Name:      "hpcwhisk-" + cfg.Policy.Name(),
		Partition: pilotPartition,
		Nodes:     1,
		OnStart:   m.onPilotStart,
		OnSigterm: m.onSigterm,
		OnEnd:     m.onEnd,
	}
	m.warmupFn, m.exitFn = m.warmupCb, m.exitCb
	return m
}

// Start begins the replenishment loop (first top-up immediately).
func (m *PilotManager) Start() {
	if m.ticker != nil {
		return
	}
	m.replenish()
	m.ticker = m.sim.Every(replenishPeriod, m.replenish)
}

// replenish delegates the queue top-up decision to the policy (§III-D:
// every 15 s the manager restocks what started).
func (m *PilotManager) replenish() { m.policy.Replenish(managerEnv{m}) }

// managerEnv implements policy.Env over the manager's emulator and
// controller.
type managerEnv struct{ m *PilotManager }

// Now implements policy.Env.
func (e managerEnv) Now() des.Time { return e.m.sim.Now() }

// QueuedPilots implements policy.Env.
func (e managerEnv) QueuedPilots() int { return e.m.emu.QueuedPilots() }

// QueuedFixedByLimit implements policy.Env.
func (e managerEnv) QueuedFixedByLimit() map[time.Duration]int {
	return e.m.emu.QueuedPilotsByLimit()
}

// QueuedFlexible implements policy.Env.
func (e managerEnv) QueuedFlexible() int { return e.m.emu.QueuedFlexiblePilots() }

// RunningPilots implements policy.Env.
func (e managerEnv) RunningPilots() int { return len(e.m.pilots) }

// HealthyInvokers implements policy.Env.
func (e managerEnv) HealthyInvokers() int { return e.m.ctrl.HealthyCount() }

// InvokerUtilization implements policy.Env.
func (e managerEnv) InvokerUtilization() float64 { return e.m.ctrl.Utilization() }

// Invocations implements policy.Env.
func (e managerEnv) Invocations() (completed, rejected503 int) {
	c := e.m.ctrl
	return c.NSuccess + c.NFailed + c.NTimeout + c.N503, c.N503
}

// SubmitFixed implements policy.Env.
func (e managerEnv) SubmitFixed(limit time.Duration, priority int64) {
	spec := e.m.spec
	spec.TimeLimit, spec.Priority = limit, priority
	e.m.submit(spec)
}

// SubmitFlexible implements policy.Env.
func (e managerEnv) SubmitFlexible(min, max time.Duration) {
	spec := e.m.spec
	spec.TimeMin, spec.TimeLimit = min, max
	e.m.submit(spec)
}

// submit queues one pilot job.
func (m *PilotManager) submit(spec slurm.JobSpec) {
	m.Submitted++
	m.pending = append(m.pending, m.emu.Submit(spec))
}

// CancelQueued implements policy.Env: it cancels up to n of this
// manager's pending pilots, newest first (the oldest keep their queue
// age).
func (e managerEnv) CancelQueued(n int) int {
	m := e.m
	cancelled := 0
	for cancelled < n && len(m.pending) > 0 {
		last := len(m.pending) - 1
		j := m.pending[last]
		m.pending[last] = nil
		m.pending = m.pending[:last]
		if m.emu.Cancel(j) {
			cancelled++
		}
	}
	return cancelled
}

// removePending drops a job that left the queue (it started).
func (m *PilotManager) removePending(j *slurm.Job) {
	for i, q := range m.pending {
		if q == j {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
}

// onPilotStart boots the OpenWhisk invoker inside the pilot job: after
// the warm-up time it registers with the controller and turns healthy.
func (m *PilotManager) onPilotStart(j *slurm.Job) {
	m.removePending(j)
	m.PilotsStarted++
	p := m.newPilot(j)
	m.pilots[j] = p
	m.States.Add(m.sim.Now(), phaseWarming)
	warmup := dist.Seconds(warmupSeconds, m.rng)
	p.warmupEv = m.sim.AfterCall(warmup, m.warmupFn, p)
	m.policy.PilotStarted(managerEnv{m})
}

// newPilot returns a warming pilot record for job j, an ended pilot's
// when one is spare, built alike either way.
func (m *PilotManager) newPilot(j *slurm.Job) *pilot {
	var p *pilot
	if k := len(m.spare); k > 0 {
		p = m.spare[k-1]
		m.spare[k-1] = nil
		m.spare = m.spare[:k-1]
	} else {
		p = new(pilot)
		p.drainedFn = p.drained
	}
	*p = pilot{m: m, job: j, phase: phaseWarming, drainedFn: p.drainedFn}
	return p
}

// warmupCb completes a pilot's boot: the invoker registers with the
// controller and the worker turns healthy.
func (m *PilotManager) warmupCb(v any) {
	p := v.(*pilot)
	if p.job.State != slurm.Running {
		return
	}
	inv := m.ctrl.NewInvoker(whisk.DefaultInvokerConfig(), m.rng.Int63())
	m.ctrl.Register(inv)
	p.invoker = inv
	p.healthyAt = m.sim.Now()
	m.Registered++
	m.States.Move(m.sim.Now(), phaseWarming, phaseHealthy)
	p.phase = phaseHealthy
}

// onSigterm runs the §III-C hand-off (or the ablation's hard kill).
func (m *PilotManager) onSigterm(j *slurm.Job, at des.Time) {
	p := m.pilots[j]
	if p == nil {
		return
	}
	switch p.phase {
	case phaseWarming:
		// Never registered: nothing to hand off; exit immediately.
		p.warmupEv.Stop()
		m.KilledInWarmup++
		m.finishPilot(p, at)
		p.exitEv = m.sim.AfterCall(time.Second, m.exitFn, p)
	case phaseHealthy:
		if !m.cfg.GracefulHandoff {
			m.KilledUngraceful++
			p.invoker.Kill()
			m.finishPilot(p, at)
			p.exitEv = m.sim.AfterCall(time.Second, m.exitFn, p)
			return
		}
		p.phase = phaseDraining
		m.States.Move(at, phaseHealthy, phaseDraining)
		m.ReadySpans.AddDuration(at - p.healthyAt)
		m.Handoffs++
		p.invoker.Sigterm(m.cfg.InterruptRunning, p.drainedFn)
	}
}

// drained is the invoker's drain-complete callback: the pilot exits
// after its local cleanup.
func (p *pilot) drained() {
	p.exitEv = p.m.sim.AfterCall(drainExitDelay, p.m.exitFn, p)
}

// exitCb is the delayed exit of a pilot after a SIGTERM in warm-up, a
// hard kill, or a drain: a draining pilot finishes, and its job exits.
// A SIGKILL mid-drain ends the job inside onEnd, whose Kill drains the
// invoker and so arms this exit after the pilot has ended; then the
// exit does nothing, and the record and job go back here, the last
// event that holds them.
func (m *PilotManager) exitCb(v any) {
	p := v.(*pilot)
	if p.job.State == slurm.Done {
		m.release(p)
		return
	}
	if p.phase == phaseDraining {
		m.finishPilot(p, m.sim.Now())
	}
	p.job.Exit() // onEnd releases the pilot
}

// onEnd covers every exit path, including SIGKILL before the drain
// completed (the invoker is lost with whatever it still held). The
// policy observes the end of every started pilot. A job that never
// started goes back to the emulator here; a started pilot goes back
// with its job and invoker, unless its delayed exit is still pending.
func (m *PilotManager) onEnd(j *slurm.Job, reason slurm.EndReason) {
	p := m.pilots[j]
	if p == nil {
		// A queued job that never started (cancelled externally, e.g.
		// scancel): forget it, or CancelQueued would later pop the
		// stale entry and trim fewer live pilots than asked.
		m.removePending(j)
		m.emu.Release(j)
		return
	}
	delete(m.pilots, j)
	if p.phase != phaseDone && reason != slurm.ReasonCancelled {
		p.warmupEv.Stop()
		if p.invoker != nil && p.invoker.State() != whisk.InvokerGone {
			if p.phase == phaseHealthy {
				m.ReadySpans.AddDuration(m.sim.Now() - p.healthyAt)
			}
			p.invoker.Kill()
		}
		m.finishPilot(p, m.sim.Now())
	}
	m.policy.PilotEnded(managerEnv{m}, policy.PilotEnd{Reason: endReason(reason)})
	if !p.exitEv.Pending() {
		m.release(p)
	}
}

// release hands an ended pilot's invoker back to the controller, its
// job to the emulator and its record to the free list.
func (m *PilotManager) release(p *pilot) {
	if p.invoker != nil {
		m.ctrl.Release(p.invoker)
	}
	m.emu.Release(p.job)
	*p = pilot{drainedFn: p.drainedFn}
	m.spare = append(m.spare, p)
}

// endReason maps the emulator's exit reasons onto the policy view.
func endReason(r slurm.EndReason) policy.EndReason {
	switch r {
	case slurm.ReasonPreempted:
		return policy.EndPreempted
	case slurm.ReasonTimeout:
		return policy.EndExpired
	default:
		return policy.EndOther
	}
}

func (m *PilotManager) finishPilot(p *pilot, at des.Time) {
	if p.phase == phaseDone {
		return
	}
	m.States.Remove(at, p.phase)
	p.phase = phaseDone
}
