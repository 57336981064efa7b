package workload

import (
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/stats"
)

// Job is one prime HPC job: the unit of Fig. 2's analysis and the input
// of the full-scheduler mode of the Slurm emulator.
type Job struct {
	Submit   time.Duration // submission instant
	Nodes    int           // requested node count
	Declared time.Duration // user-declared walltime limit
	Runtime  time.Duration // actual runtime (≤ Declared)
}

// Slack returns the difference between the declared limit and the actual
// runtime (the orange CDF of Fig. 2).
func (j Job) Slack() time.Duration { return j.Declared - j.Runtime }

// JobGenConfig parameterizes the HPC job-stream generator calibrated to
// Fig. 2 (74k non-commercial jobs/week; median declared walltime 60 min;
// only 5% declare under 15 min).
type JobGenConfig struct {
	N       int           // number of jobs
	Horizon time.Duration // submissions are uniform-Poisson over this span
	// NodesDist yields the requested node count (values are rounded).
	NodesDist dist.Dist
	// WalltimeSeconds yields the declared limit.
	WalltimeSeconds dist.Dist
	Seed            int64
}

// runtimeFraction yields a job's runtime/limit.
var runtimeFraction = dist.RuntimeFraction()

// DefaultJobGen returns the Fig. 2 calibration for n jobs over horizon.
func DefaultJobGen(n int, horizon time.Duration, seed int64) JobGenConfig {
	return JobGenConfig{
		N:       n,
		Horizon: horizon,
		NodesDist: dist.NewDiscrete(
			[]float64{1, 2, 3, 4, 8, 12, 16, 24, 32, 64, 128},
			[]float64{52, 12, 5, 8, 7, 4, 4, 3, 2.5, 1.8, 0.7},
		),
		WalltimeSeconds: dist.DeclaredWalltimeSeconds(),
		Seed:            seed,
	}
}

// Generate builds the job stream, sorted by submission time.
func (cfg JobGenConfig) Generate() []Job {
	if cfg.N <= 0 {
		panic("workload: job generator needs N > 0")
	}
	root := dist.NewRand(cfg.Seed)
	rArr := dist.Split(root)
	rNodes := dist.Split(root)
	rWall := dist.Split(root)
	rFrac := dist.Split(root)

	// Poisson arrivals conditioned on N over the horizon == N sorted
	// uniform draws.
	arrivals := make([]float64, cfg.N)
	for i := range arrivals {
		arrivals[i] = rArr.Float64() * cfg.Horizon.Seconds()
	}
	sort.Float64s(arrivals)

	jobs := make([]Job, cfg.N)
	for i := range jobs {
		wall := cfg.WalltimeSeconds.Sample(rWall)
		frac := runtimeFraction.Sample(rFrac)
		if frac <= 0 {
			frac = 0.001
		}
		if frac > 1 {
			frac = 1
		}
		nodes := int(cfg.NodesDist.Sample(rNodes) + 0.5)
		if nodes < 1 {
			nodes = 1
		}
		runtime := time.Duration(wall * frac * float64(time.Second))
		if runtime < time.Second {
			runtime = time.Second
		}
		jobs[i] = Job{
			Submit:   time.Duration(arrivals[i] * float64(time.Second)),
			Nodes:    nodes,
			Declared: time.Duration(wall * float64(time.Second)),
			Runtime:  runtime,
		}
	}
	return jobs
}

// JobCDFs returns the three samples of Fig. 2 in minutes: declared
// limits, runtimes, and slacks.
func JobCDFs(jobs []Job) (limits, runtimes, slacks *stats.Sample) {
	limits, runtimes, slacks = &stats.Sample{}, &stats.Sample{}, &stats.Sample{}
	for _, j := range jobs {
		limits.Add(j.Declared.Minutes())
		runtimes.Add(j.Runtime.Minutes())
		slacks.Add(j.Slack().Minutes())
	}
	return limits, runtimes, slacks
}
