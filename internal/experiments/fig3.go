package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/slurm"
	"repro/internal/stats"
)

// Fig3Result reproduces the motivating example of Fig. 3: four HPC jobs
// on five nodes scheduled to (near-)minimal makespan, with short pilot
// jobs filling the gaps.
type Fig3Result struct {
	JobStarts map[string]time.Duration
	Makespan  time.Duration

	// AvgIdleNodes is the average number of non-prime nodes within the
	// makespan (the paper's example: 1.2).
	AvgIdleNodes float64

	// IdleSurface is the idle node-time within the makespan.
	IdleSurface time.Duration

	// ReadyCoverage is the share of that surface covered by *ready*
	// invokers (the paper: 83%); GapCoverage counts warming time too.
	ReadyCoverage float64
	GapCoverage   float64

	PilotsStarted int
}

// RunFig3Ctx builds the example — job1 3×5min, job2 1×13min, job3
// 2×7min, job4 4×8min — with cooperative cancellation and progress.
// The pilots come from the registry fib policy (the A1 lengths, 10
// queued per length), not the figure's illustrative 2/4/6/10-minute
// set.
func RunFig3Ctx(ctx context.Context, seed int64, progress ProgressFunc) (Fig3Result, error) {
	scfg := core.DefaultSystemConfig(5, "fib")
	scfg.Seed = seed
	scfg.Slurm.SchedInterval = 5 * time.Second
	scfg.Slurm.PassBase = 100 * time.Millisecond
	sys := core.NewSite(des.New(), scfg)

	// Track idle and pilot node counts from cluster transitions.
	var idleTW, pilotTW stats.TimeWeighted
	cl := sys.Slurm.Cluster()
	observe := func(at time.Duration) {
		idleTW.Observe(at, float64(cl.Count(cluster.Idle)))
		pilotTW.Observe(at, float64(cl.Count(cluster.Pilot)))
	}
	observe(0)
	cl.OnChange(func(_ int, _, _ cluster.State, at time.Duration) { observe(at) })

	mins := func(m int) time.Duration { return time.Duration(m) * time.Minute }
	starts := map[string]time.Duration{}
	var res Fig3Result
	done := 0
	// The measurement window closes exactly at the makespan: capture
	// every statistic inside the last job's completion callback, before
	// the post-schedule all-idle tail pollutes the accounting.
	capture := func() {
		now := sys.Sim.Now()
		res.Makespan = now
		idleTW.Finish(now)
		pilotTW.Finish(now)
		sys.Manager.States.Finish(now)

		gapSurface := (idleTW.TimeMean() + pilotTW.TimeMean()) * now.Seconds()
		healthySurface := sys.Manager.States.Healthy.TimeMean() * now.Seconds()
		warmingSurface := sys.Manager.States.Warming.TimeMean() * now.Seconds()

		res.IdleSurface = time.Duration(gapSurface * float64(time.Second))
		res.PilotsStarted = sys.Manager.PilotsStarted
		if now > 0 {
			res.AvgIdleNodes = gapSurface / now.Seconds()
		}
		if gapSurface > 0 {
			res.ReadyCoverage = healthySurface / gapSurface
			res.GapCoverage = (healthySurface + warmingSurface) / gapSurface
		}
	}
	submit := func(name string, nodes, runMin int) {
		sys.Slurm.Submit(slurm.JobSpec{
			Name: name, Partition: "hpc", Nodes: nodes,
			TimeLimit: mins(runMin), Runtime: mins(runMin),
			OnStart: func(j *slurm.Job) { starts[name] = sys.Sim.Now() },
			OnEnd: func(j *slurm.Job, reason slurm.EndReason) {
				done++
				if done == 4 {
					capture()
				}
			},
		})
	}
	submit("job1", 3, 5)
	submit("job2", 1, 13)
	submit("job3", 2, 7)
	submit("job4", 4, 8)

	sys.Start()
	if err := sys.RunCtx(ctx, 40*time.Minute, 0, progress); err != nil {
		return Fig3Result{}, err
	}

	res.JobStarts = starts
	return res, nil
}

// Render prints the example in the paper's terms.
func (r Fig3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 3 — 4 HPC jobs on 5 nodes; makespan %v\n", r.Makespan.Round(time.Second))
	for _, name := range []string{"job1", "job2", "job3", "job4"} {
		fmt.Fprintf(w, "  %s starts at %v\n", name, r.JobStarts[name].Round(time.Second))
	}
	fmt.Fprintf(w, "  avg idle nodes %.2f (paper: 1.2); idle surface %v\n",
		r.AvgIdleNodes, r.IdleSurface.Round(time.Minute))
	fmt.Fprintf(w, "  %d pilots; ready invokers covered %.0f%% of idle slots (paper: 83%%)\n",
		r.PilotsStarted, 100*r.ReadyCoverage)
}
