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

// Minutes builds a duration slice from minute values.
func Minutes(ms ...int) []time.Duration { return policy.Minutes(ms...) }

// ManagerConfig parameterizes the HPC-Whisk job manager.
type ManagerConfig struct {
	// Policy is the pilot-supply policy (required; fib and var model
	// knobs live in policy.FibConfig and policy.VarConfig).
	Policy policy.SupplyPolicy

	// Partition is the tier-0 Slurm partition pilots are submitted to.
	Partition string

	// Replenish is the queue top-up period (15 s in the paper).
	Replenish time.Duration

	// WarmupSeconds is the invoker boot-to-healthy time distribution
	// (§IV-B: median 12.48 s, p95 26.5 s).
	WarmupSeconds dist.Dist

	// GracefulHandoff enables the §III-C hand-off; disabling it is the
	// unmodified-OpenWhisk ablation where SIGTERM just kills the worker.
	GracefulHandoff bool

	// InterruptRunning enables interrupting in-flight executions of
	// interrupt-safe actions during hand-off.
	InterruptRunning bool

	// DrainExitDelay is the local cleanup time between finishing the
	// hand-off and the pilot job exiting.
	DrainExitDelay time.Duration

	Invoker whisk.InvokerConfig
	Seed    int64
}

// DefaultManagerConfig returns the paper's manager configuration with
// the named pilot-supply policy from the policy registry ("fib",
// "var", "adaptive", ...). Unknown names panic; validate with
// policy.New first when the name comes from user input.
func DefaultManagerConfig(policyName string) ManagerConfig {
	return ManagerConfig{
		Policy:           policy.MustNew(policyName),
		Partition:        "whisk",
		Replenish:        15 * time.Second,
		WarmupSeconds:    dist.WarmupSeconds(),
		GracefulHandoff:  true,
		InterruptRunning: true,
		DrainExitDelay:   2 * time.Second,
		Invoker:          whisk.DefaultInvokerConfig(),
		Seed:             1,
	}
}

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

type pilot struct {
	job       *slurm.Job
	phase     pilotPhase
	invoker   *whisk.Invoker
	warmupEv  des.Event
	healthyAt des.Time
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
	ticker  *des.Ticker

	warmupFn func(any) // cached typed-arg callback: one per manager, not per pilot

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
// streaming switches the worker-state series to O(1)-memory accounting
// (see NewWorkerStatesStreaming); pilot behavior, RNG draws and event
// order are unaffected — only what the accounting retains.
func newPilotManager(emu *slurm.Emulator, ctrl *whisk.Controller, cfg ManagerConfig, streaming bool) *PilotManager {
	if cfg.Policy == nil {
		panic("core: ManagerConfig.Policy is nil (build configs with DefaultManagerConfig)")
	}
	cfg.Policy.Init(dist.NewRand(cfg.Seed + policySeedOffset))
	m := &PilotManager{
		sim:    emu.Sim(),
		emu:    emu,
		ctrl:   ctrl,
		cfg:    cfg,
		rng:    dist.NewRand(cfg.Seed),
		policy: cfg.Policy,
		pilots: map[*slurm.Job]*pilot{},
		States: NewWorkerStatesStreaming(streaming),
	}
	m.warmupFn = m.warmupCb
	return m
}

// Policy exposes the active supply policy (e.g. to read
// policy-specific observability like the adaptive depth).
func (m *PilotManager) Policy() policy.SupplyPolicy { return m.policy }

// Start begins the replenishment loop (first top-up immediately).
func (m *PilotManager) Start() {
	if m.ticker != nil {
		return
	}
	m.replenish()
	m.ticker = m.sim.Every(m.cfg.Replenish, m.replenish)
}

// Stop halts replenishment (queued jobs stay queued).
func (m *PilotManager) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
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
	m := e.m
	m.Submitted++
	j := m.emu.Submit(slurm.JobSpec{
		Name:      "hpcwhisk-" + m.policy.Name(),
		Partition: m.cfg.Partition,
		Nodes:     1,
		TimeLimit: limit,
		Priority:  priority,
		OnStart:   m.onPilotStart,
		OnSigterm: m.onSigterm,
		OnEnd:     m.onEnd,
	})
	m.pending = append(m.pending, j)
}

// SubmitFlexible implements policy.Env.
func (e managerEnv) SubmitFlexible(min, max time.Duration) {
	m := e.m
	m.Submitted++
	j := m.emu.Submit(slurm.JobSpec{
		Name:      "hpcwhisk-" + m.policy.Name(),
		Partition: m.cfg.Partition,
		Nodes:     1,
		TimeMin:   min,
		TimeLimit: max,
		OnStart:   m.onPilotStart,
		OnSigterm: m.onSigterm,
		OnEnd:     m.onEnd,
	})
	m.pending = append(m.pending, j)
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
	p := &pilot{job: j, phase: phaseWarming}
	m.pilots[j] = p
	m.States.Add(m.sim.Now(), phaseWarming)
	warmup := dist.Seconds(m.cfg.WarmupSeconds, m.rng)
	p.warmupEv = m.sim.AfterCall(warmup, m.warmupFn, p)
	m.policy.PilotStarted(managerEnv{m})
}

// warmupCb completes a pilot's boot: the invoker registers with the
// controller and the worker turns healthy.
func (m *PilotManager) warmupCb(v any) {
	p := v.(*pilot)
	if p.job.State != slurm.Running {
		return
	}
	inv := whisk.NewInvoker(m.cfg.Invoker, m.rng.Int63())
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
		m.sim.AfterCall(time.Second, exitJob, j)
	case phaseHealthy:
		if !m.cfg.GracefulHandoff {
			m.KilledUngraceful++
			p.invoker.Kill()
			m.finishPilot(p, at)
			m.sim.AfterCall(time.Second, exitJob, j)
			return
		}
		p.phase = phaseDraining
		m.States.Move(at, phaseHealthy, phaseDraining)
		m.ReadySpans.AddDuration(at - p.healthyAt)
		m.Handoffs++
		p.invoker.Sigterm(m.cfg.InterruptRunning, func() {
			m.sim.After(m.cfg.DrainExitDelay, func() {
				if p.phase == phaseDraining {
					m.finishPilot(p, m.sim.Now())
				}
				j.Exit()
			})
		})
	}
}

// onEnd covers every exit path, including SIGKILL before the drain
// completed (the invoker is lost with whatever it still held). The
// policy observes the end of every started pilot.
func (m *PilotManager) onEnd(j *slurm.Job, reason slurm.EndReason) {
	p := m.pilots[j]
	if p == nil {
		// A queued job that never started (cancelled externally, e.g.
		// scancel): forget it, or CancelQueued would later pop the
		// stale entry and trim fewer live pilots than asked.
		m.removePending(j)
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
	m.policy.PilotEnded(managerEnv{m}, policy.PilotEnd{
		Reason:     endReason(reason),
		Limit:      j.Granted,
		Registered: p.invoker != nil,
	})
}

// exitJob is the shared typed-arg callback for delayed pilot exits.
func exitJob(v any) { v.(*slurm.Job).Exit() }

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

// ActivePilots returns how many pilots are currently tracked.
func (m *PilotManager) ActivePilots() int { return len(m.pilots) }
