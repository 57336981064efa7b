package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/slurm"
	"repro/internal/stats"
	"repro/internal/workload"
)

// EndogenousConfig parameterizes the full-scheduler experiment: instead
// of replaying an exogenous availability trace, a Fig. 2-calibrated
// prime job stream flows through the emulator's own EASY backfill, and
// the idleness the pilots harvest *emerges* from scheduling — the
// complete system of §III end to end.
type EndogenousConfig struct {
	Nodes   int
	Horizon time.Duration
	Seed    int64

	// Policy names the pilot-supply policy in the policy registry.
	// Empty defaults to "fib".
	Policy string

	// Utilization is the target prime-load share of the cluster
	// (Prometheus ran above 0.99; smaller slices need headroom for the
	// coarser job mix).
	Utilization float64

	// MaxWalltime and MaxJobNodes clamp the Fig. 2 job mix so single
	// jobs cannot swamp a small cluster slice.
	MaxWalltime time.Duration
	MaxJobNodes int
}

// DefaultEndogenousConfig returns a tractable slice.
func DefaultEndogenousConfig(seed int64) EndogenousConfig {
	return EndogenousConfig{
		Nodes:       256,
		Horizon:     12 * time.Hour,
		Seed:        seed,
		Policy:      "fib",
		Utilization: 0.94,
		MaxWalltime: 4 * time.Hour,
		MaxJobNodes: 32,
	}
}

// EndogenousResult summarizes the run.
type EndogenousResult struct {
	Config EndogenousConfig

	// PrimeUtilization is the busy share of the cluster over the
	// horizon; IdleShare and PilotShare split the remainder.
	PrimeUtilization float64
	IdleShare        float64
	PilotShare       float64

	// PilotCoverage is pilot time over the non-prime (idle ∪ pilot)
	// surface — the endogenous analogue of the paper's coverage.
	PilotCoverage float64

	// MeanWait and P95Wait summarize prime-job queue waits; the paper's
	// non-invasiveness claim is that pilots never add to them beyond
	// the 3-minute grace.
	MeanWait time.Duration
	P95Wait  time.Duration

	JobsSubmitted int
	JobsCompleted int
	PilotsStarted int
	Preempted     int
}

// PolicyName resolves the effective supply-policy name: the Policy
// field when set, else the paper's fib default.
func (cfg EndogenousConfig) PolicyName() string {
	if cfg.Policy != "" {
		return cfg.Policy
	}
	return "fib"
}

// RunEndogenousCtx executes the experiment with cooperative
// cancellation and progress.
func RunEndogenousCtx(ctx context.Context, cfg EndogenousConfig, progress ProgressFunc) (EndogenousResult, error) {
	sysCfg := core.DefaultSystemConfig(cfg.Nodes, cfg.PolicyName())
	sysCfg.Seed = cfg.Seed + 10
	sys := core.NewSite(des.New(), sysCfg)

	// Build the clamped Fig. 2 job mix and size the stream so the
	// offered load hits the utilization target.
	gen := workload.DefaultJobGen(1000, cfg.Horizon, cfg.Seed+11)
	gen.WalltimeSeconds = dist.Clamped{D: gen.WalltimeSeconds, Min: 300, Max: cfg.MaxWalltime.Seconds()}
	gen.NodesDist = dist.Clamped{D: gen.NodesDist, Min: 1, Max: float64(cfg.MaxJobNodes)}
	probe := gen.Generate()
	var nodeSeconds float64
	for _, j := range probe {
		nodeSeconds += float64(j.Nodes) * j.Runtime.Seconds()
	}
	perJob := nodeSeconds / float64(len(probe))
	gen.N = int(float64(cfg.Nodes) * cfg.Horizon.Seconds() * cfg.Utilization / perJob)
	jobs := gen.Generate()

	// Track busy/idle/pilot node counts from cluster transitions.
	var busyTW, idleTW, pilotTW stats.TimeWeighted
	cl := sys.Slurm.Cluster()
	observe := func(at time.Duration) {
		busyTW.Observe(at, float64(cl.Count(cluster.Busy)))
		idleTW.Observe(at, float64(cl.Count(cluster.Idle)))
		pilotTW.Observe(at, float64(cl.Count(cluster.Pilot)))
	}
	observe(0)
	cl.OnChange(func(_ int, _, _ cluster.State, at time.Duration) { observe(at) })

	var waits stats.Sample
	completed := 0
	for _, j := range jobs {
		j := j
		sys.Sim.Schedule(j.Submit, func() {
			sys.Slurm.Submit(slurm.JobSpec{
				Name:      "prime",
				Partition: "hpc",
				Nodes:     j.Nodes,
				TimeLimit: j.Declared,
				Runtime:   j.Runtime,
				OnStart: func(sj *slurm.Job) {
					waits.AddDuration(sj.Started - sj.Submitted)
				},
				OnEnd: func(sj *slurm.Job, reason slurm.EndReason) {
					if reason == slurm.ReasonCompleted {
						completed++
					}
				},
			})
		})
	}

	sys.Start()
	if err := sys.RunCtx(ctx, cfg.Horizon, 0, progress); err != nil {
		return EndogenousResult{}, err
	}
	busyTW.Finish(cfg.Horizon)
	idleTW.Finish(cfg.Horizon)
	pilotTW.Finish(cfg.Horizon)

	n := float64(cfg.Nodes)
	res := EndogenousResult{
		Config:           cfg,
		PrimeUtilization: busyTW.TimeMean() / n,
		IdleShare:        idleTW.TimeMean() / n,
		PilotShare:       pilotTW.TimeMean() / n,
		JobsSubmitted:    len(jobs),
		JobsCompleted:    completed,
		PilotsStarted:    sys.Manager.PilotsStarted,
		Preempted:        sys.Slurm.Preempted,
	}
	if gap := res.IdleShare + res.PilotShare; gap > 0 {
		res.PilotCoverage = res.PilotShare / gap
	}
	if waits.Len() > 0 {
		res.MeanWait = time.Duration(waits.Mean() * float64(time.Second))
		res.P95Wait = time.Duration(waits.Quantile(0.95) * float64(time.Second))
	}
	return res, nil
}

// Render prints the summary.
func (r EndogenousResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Endogenous full-scheduler run — %d nodes, %v, %s pilots\n",
		r.Config.Nodes, r.Config.Horizon, r.Config.PolicyName())
	fmt.Fprintf(w, "  prime utilization %.1f%%; idle %.1f%%; pilot %.1f%%\n",
		100*r.PrimeUtilization, 100*r.IdleShare, 100*r.PilotShare)
	fmt.Fprintf(w, "  pilots covered %.1f%% of the emergent gaps\n", 100*r.PilotCoverage)
	fmt.Fprintf(w, "  prime jobs: %d submitted, %d completed; wait mean %v / p95 %v\n",
		r.JobsSubmitted, r.JobsCompleted,
		r.MeanWait.Round(time.Second), r.P95Wait.Round(time.Second))
	fmt.Fprintf(w, "  pilots started %d; preempted %d\n", r.PilotsStarted, r.Preempted)
}
