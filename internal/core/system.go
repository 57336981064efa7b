package core

import (
	"context"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/slurm"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// SystemConfig wires a complete HPC-Whisk deployment: cluster size,
// Slurm parameters, OpenWhisk controller model, and the pilot manager.
type SystemConfig struct {
	Nodes      int
	Slurm      slurm.Config
	Controller whisk.ControllerConfig
	Manager    ManagerConfig
	Seed       int64

	// StreamingStats switches the site's accounting (worker-state
	// series, Slurm-level logger) to O(1)-memory streaming collectors
	// for week-scale horizons. Simulation behavior is identical — the
	// flag only changes what the metrics retain. Off by default so
	// golden-pinned runs keep exact buffered accounting.
	StreamingStats bool
}

// SiteConfig is the per-site deployment configuration of a federation:
// one federated Site is exactly one single-cluster deployment, so the
// two names share one type.
type SiteConfig = SystemConfig

// DefaultSystemConfig returns a deployment matching the paper's setup
// for the given cluster size and pilot-supply policy (a policy-registry
// name: "fib", "var", "adaptive", "lease", "hybrid", or anything the
// embedding program registered). An unknown name panics, as the
// registry's MustNew does; validate with policy.New first when the
// name comes from user input.
func DefaultSystemConfig(nodes int, policyName string) SystemConfig {
	ctrl := whisk.DefaultControllerConfig()
	// The wired deployment's clients (load generators, the Alg. 1
	// wrapper, experiment accounting) never retain an invocation past
	// its completion callback, so the full deployment runs the
	// allocation-free pooled request path. Standalone controllers keep
	// pooling off by default.
	ctrl.PoolInvocations = true
	return SystemConfig{
		Nodes:      nodes,
		Slurm:      slurm.DefaultConfig(),
		Controller: ctrl,
		Manager:    DefaultManagerConfig(policyName),
		Seed:       1,
	}
}

// Site is one fully wired HPC-Whisk deployment — Slurm emulator,
// OpenWhisk controller and bus, pilot manager, Slurm-level logger — on
// a simulation plane it may share with other sites. A single cluster
// is NewSite on a fresh clock (des.New()); a Federation hosts N sites
// on one clock behind a routing front door.
type Site struct {
	Sim     *des.Sim
	Bus     *bus.Bus[*whisk.Invocation]
	Ctrl    *whisk.Controller
	Slurm   *slurm.Emulator
	Manager *PilotManager
	Logger  *SlurmLogger
}

// NewSite builds one deployment on an existing simulation plane: a
// tier-0 "whisk" partition for the pilots, a tier-1 "hpc" partition
// for prime jobs, the off-cluster controller, and the job manager.
// All of the site's seeds derive from cfg.Seed at fixed offsets, so a
// site is a pure function of its own config regardless of how many
// other sites share the clock.
func NewSite(sim *des.Sim, cfg SiteConfig) *Site {
	b := bus.New[*whisk.Invocation](sim, nil, cfg.Seed+1)
	ctrl := whisk.NewController(sim, b, cfg.Controller, cfg.Seed+2)
	emu := slurm.New(sim, cfg.Nodes, cfg.Slurm)
	emu.AddPartition(slurm.Partition{Name: pilotPartition, PriorityTier: 0})
	emu.AddPartition(slurm.Partition{Name: "hpc", PriorityTier: 1})
	mgr := newPilotManager(emu, ctrl, cfg.Manager, cfg.Seed+3, cfg.StreamingStats)
	logger := newSlurmLogger(emu, cfg.Seed+4, cfg.StreamingStats)
	return &Site{
		Sim:     sim,
		Bus:     b,
		Ctrl:    ctrl,
		Slurm:   emu,
		Manager: mgr,
		Logger:  logger,
	}
}

// LoadTrace drives the cluster with an exogenous availability trace.
func (s *Site) LoadTrace(tr *workload.Trace) { s.Slurm.DriveTrace(tr) }

// Start launches the manager, the scheduler, and the Slurm-level
// logger.
func (s *Site) Start() {
	s.Manager.Start()
	s.Slurm.Start()
	s.Logger.Start()
}

// Run advances the simulation by d. On a federation's shared plane this
// advances every site sharing it.
func (s *Site) Run(d time.Duration) { s.Sim.RunFor(d) }

// RunCtx advances the simulation by d in DefaultEpoch chunks, checking
// ctx between chunks; see the package-level runCtx.
func (s *Site) RunCtx(ctx context.Context, d time.Duration, progress func(done, total time.Duration)) error {
	return runCtx(s.Sim, ctx, d, progress)
}

// Invoke submits a call to the site's controller. Together with the
// health accessors below it makes *Site satisfy router.Site, the
// per-cluster view the federation's front door routes over.
func (s *Site) Invoke(action string, done func(*whisk.Invocation)) {
	s.Ctrl.Invoke(action, done)
}

// HealthyInvokers returns the number of invokers accepting work.
func (s *Site) HealthyInvokers() int { return s.Ctrl.HealthyCount() }

// Utilization returns the busy share of healthy invoker capacity.
func (s *Site) Utilization() float64 { return s.Ctrl.Utilization() }

// QueueDepth returns the accepted-but-unstarted request backlog.
func (s *Site) QueueDepth() int { return s.Ctrl.QueueDepth() }

// FastLaneDepth returns the §III-C priority-topic backlog.
func (s *Site) FastLaneDepth() int { return s.Ctrl.FastLaneDepth() }

// DrainingInvokers returns the number of invokers mid-hand-off.
func (s *Site) DrainingInvokers() int { return s.Ctrl.DrainingCount() }

// DefaultEpoch is the cancellation/progress granularity of RunCtx: one
// virtual minute. A 24-hour production day simulates in about a second
// of wall time, so the check costs nothing while keeping cancellation
// latency well under a millisecond of wall clock.
const DefaultEpoch = time.Minute

// runCtx advances the simulation by d in DefaultEpoch chunks of virtual
// time, checking ctx between chunks and reporting progress after each.
// Chunked advancement fires exactly the events a single Run(d) would,
// in the same order — the DES orders events by (instant, sequence)
// alone — so a completed runCtx is bit-identical to Run. On
// cancellation it stops at the current epoch boundary and returns the
// context's error; the simulation state stays valid (partial) and the
// clock sits at the boundary reached. A run whose final epoch has
// already fired is complete, so a cancellation racing with completion
// reports success, never a spurious partial-result error.
func runCtx(sim *des.Sim, ctx context.Context, d time.Duration, progress func(done, total time.Duration)) error {
	start := sim.Now()
	end := start + d
	for sim.Now() < end {
		if err := ctx.Err(); err != nil {
			return err
		}
		sim.RunFor(min(DefaultEpoch, end-sim.Now()))
		if progress != nil {
			progress(sim.Now()-start, d)
		}
	}
	return nil
}
