package hpcwhisk

// One benchmark per table and figure of the paper's evaluation. Each
// regenerates its experiment end to end and reports the headline
// numbers as custom metrics, so `go test -bench=. -benchmem` reproduces
// the whole evaluation section.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// benchWeek caches the week trace across benchmarks; the sync.Once
// keeps the lazy fill safe under -race and parallel benchmark runs.
var (
	benchWeekOnce sync.Once
	benchWeek     *Trace
)

// must unwraps an experiment entry's (result, error) pair; the
// benchmarks run every entry under context.Background(), so an error
// means a broken harness.
func must[T any](res T, err error) T {
	if err != nil {
		panic(err)
	}
	return res
}

func weekTrace() *Trace {
	benchWeekOnce.Do(func() {
		benchWeek = workload.DefaultIdleProcess(experiments.PrometheusNodes, experiments.Week, 1).Generate()
	})
	return benchWeek
}

// BenchmarkFig1IdleNodesCDF regenerates Fig. 1a: the time-weighted
// distribution of the number of idle nodes over the week.
func BenchmarkFig1IdleNodesCDF(b *testing.B) {
	tr := weekTrace()
	b.ResetTimer()
	var r experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r = must(experiments.RunFig1Ctx(context.Background(), tr))
	}
	b.ReportMetric(r.MeanIdle, "mean-idle-nodes")
	b.ReportMetric(r.MedianIdle, "median-idle-nodes")
}

// BenchmarkFig1IdlePeriodCDF regenerates Fig. 1b: the idle-period
// length distribution.
func BenchmarkFig1IdlePeriodCDF(b *testing.B) {
	tr := weekTrace()
	b.ResetTimer()
	var med float64
	for i := 0; i < b.N; i++ {
		med = tr.PeriodLengths().Median()
	}
	b.ReportMetric(med/60, "median-period-min")
}

// BenchmarkFig1TimeSeries regenerates Fig. 1c: the idle-count series
// with its saturation and burst structure.
func BenchmarkFig1TimeSeries(b *testing.B) {
	tr := weekTrace()
	b.ResetTimer()
	var share float64
	var longest time.Duration
	for i := 0; i < b.N; i++ {
		share, longest = tr.SaturationShare()
	}
	b.ReportMetric(100*share, "zero-idle-%")
	b.ReportMetric(longest.Minutes(), "longest-zero-idle-min")
}

// BenchmarkFig2JobCDFs regenerates Fig. 2: declared limits, runtimes,
// and slack of the 74k-job week.
func BenchmarkFig2JobCDFs(b *testing.B) {
	b.ReportAllocs()
	var r experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = must(experiments.RunFig2Ctx(context.Background(), 2, 0))
	}
	b.ReportMetric(r.MedianLimit.Minutes(), "median-limit-min")
}

// BenchmarkFig3ToySchedule regenerates the motivating example: 4 jobs
// on 5 nodes with pilot gap-filling.
func BenchmarkFig3ToySchedule(b *testing.B) {
	var r experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r = must(experiments.RunFig3Ctx(context.Background(), 3, nil))
	}
	b.ReportMetric(r.Makespan.Minutes(), "makespan-min")
	b.ReportMetric(100*r.ReadyCoverage, "ready-coverage-%")
	b.ReportMetric(r.AvgIdleNodes, "avg-idle-nodes")
}

// BenchmarkTableIJobLengthSets regenerates Table I: the clairvoyant
// coverage of all six job-length sets over the week.
func BenchmarkTableIJobLengthSets(b *testing.B) {
	tr := weekTrace()
	b.ResetTimer()
	var r experiments.TableIResult
	for i := 0; i < b.N; i++ {
		r = must(experiments.RunTableICtx(context.Background(), tr))
	}
	for _, row := range r.Rows {
		if row.Set.Name == "A1" {
			b.ReportMetric(100*row.ShareReady, "A1-ready-%")
			b.ReportMetric(float64(row.Jobs), "A1-jobs")
		}
	}
}

// BenchmarkTableIIFibExperiment regenerates Table II + Fig. 5a/5c: the
// full 24-hour fib-day run on the 2,239-node cluster.
func BenchmarkTableIIFibExperiment(b *testing.B) {
	var r DayResult
	for i := 0; i < b.N; i++ {
		cfg := experiments.FibDay(1)
		cfg.QPS = 0 // coverage perspective only; Fig 5b has its own bench
		r = must(experiments.RunDayCtx(context.Background(), cfg, nil))
	}
	b.ReportMetric(100*r.Coverage(), "live-coverage-%")
	b.ReportMetric(100*r.Sim.Coverage(), "sim-bound-%")
	b.ReportMetric(r.OW.HealthyAvg, "healthy-avg")
}

// BenchmarkTableIIIVarExperiment regenerates Table III + Fig. 6a/6c.
func BenchmarkTableIIIVarExperiment(b *testing.B) {
	var r DayResult
	for i := 0; i < b.N; i++ {
		cfg := experiments.VarDay(1)
		cfg.QPS = 0
		r = must(experiments.RunDayCtx(context.Background(), cfg, nil))
	}
	b.ReportMetric(100*r.Coverage(), "live-coverage-%")
	b.ReportMetric(100*r.Sim.Coverage(), "sim-bound-%")
	b.ReportMetric(r.OW.HealthyAvg, "healthy-avg")
}

// BenchmarkFig5bResponsivenessFib regenerates Fig. 5b: 10 QPS against
// 100 sleep functions for 24 hours on the fib day (864,000 requests).
func BenchmarkFig5bResponsivenessFib(b *testing.B) {
	var r DayResult
	for i := 0; i < b.N; i++ {
		r = must(experiments.RunDayCtx(context.Background(), experiments.FibDay(1), nil))
	}
	b.ReportMetric(100*r.Load.InvokedShare, "invoked-%")
	b.ReportMetric(100*r.Load.SuccessShare, "success-%")
	b.ReportMetric(float64(r.Load.MedianLatency.Milliseconds()), "median-ms")
}

// BenchmarkFig6bResponsivenessVar regenerates Fig. 6b on the var day.
func BenchmarkFig6bResponsivenessVar(b *testing.B) {
	var r DayResult
	for i := 0; i < b.N; i++ {
		r = must(experiments.RunDayCtx(context.Background(), experiments.VarDay(1), nil))
	}
	b.ReportMetric(100*r.Load.InvokedShare, "invoked-%")
	b.ReportMetric(100*r.Load.SuccessShare, "success-%")
	b.ReportMetric(float64(r.Load.MedianLatency.Milliseconds()), "median-ms")
}

// BenchmarkFig7SeBS regenerates Fig. 7: warm bfs/mst/pagerank on the
// HPC-node platform vs the Lambda 2048 MB platform, real kernels.
func BenchmarkFig7SeBS(b *testing.B) {
	var r experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = must(experiments.RunFig7Ctx(context.Background(), 20000, 8, 20, 4))
	}
	for _, row := range r.Rows {
		b.ReportMetric(row.Speedup, row.Function+"-lambda/prom")
	}
}

// BenchmarkWarmupCalibration verifies the §IV-B warm-up model (median
// 12.48 s, p95 26.50 s) at sampling speed.
func BenchmarkWarmupCalibration(b *testing.B) {
	d := dist.WarmupSeconds()
	r := dist.NewRand(1)
	var s stats.Sample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(d.Sample(r))
	}
	if s.Len() > 100 {
		b.ReportMetric(s.Median(), "median-s")
		b.ReportMetric(s.Quantile(0.95), "p95-s")
	}
}

// BenchmarkAblationHandoff compares the hand-off design points of
// §III-C (full protocol / no interruption / hard kill).
func BenchmarkAblationHandoff(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = must(experiments.RunAblationCtx(context.Background(),
			experiments.AblationConfig{Nodes: 256, Horizon: 4 * time.Hour, Seed: 5}, nil))
	}
	for _, row := range r.Rows {
		b.ReportMetric(100*row.LostShare, row.Variant.Name+"-lost-%")
	}
}

// BenchmarkCheckpointDay runs a contended day with the checkpoint
// subsystem fully engaged: 100 ms checkpoints under 500 ms bodies, so
// interrupted executions dump, requeue as resume tokens, and restore
// on successor pilots throughout the run. The allocation ratchet gates
// the segment-event path the same way BenchmarkFig5b gates the plain
// request path: checkpointed execution reuses the pooled invocation
// and cached callbacks, so per-segment allocations must stay flat.
func BenchmarkCheckpointDay(b *testing.B) {
	b.ReportAllocs()
	var r DayResult
	for i := 0; i < b.N; i++ {
		cfg := experiments.FibDay(5)
		cfg.Nodes = 64
		cfg.Horizon = 2 * time.Hour
		cfg.MeanIdleNodes = 6
		cfg.SaturatedFraction = 0.02
		cfg.QPS = 5
		cfg.NumActions = 50
		cfg.SleepExec = 500 * time.Millisecond
		cfg.CheckpointInterval = 100 * time.Millisecond
		r = must(experiments.RunDayCtx(context.Background(), cfg, nil))
	}
	b.ReportMetric(float64(r.Work.Checkpoints), "checkpoints")
	b.ReportMetric(float64(r.Work.Resumed), "resumes")
	b.ReportMetric(100*r.Work.GoodputShare(), "goodput-%")
}

// BenchmarkScientificWorkload runs the §VII future-work experiment: a
// heterogeneous, Azure-calibrated scientific FaaS workload over
// HPC-Whisk with the Alg. 1 fallback.
func BenchmarkScientificWorkload(b *testing.B) {
	var r experiments.ScientificResult
	for i := 0; i < b.N; i++ {
		r = must(experiments.RunScientificCtx(context.Background(), experiments.DefaultScientificConfig(1), nil))
	}
	b.ReportMetric(100*r.Load.SuccessShare, "success-%")
	b.ReportMetric(100*r.FallbackShare, "fallback-%")
}

// BenchmarkEndogenousScheduler runs prime jobs through the emulator's
// own EASY backfill with pilots harvesting the emergent gaps.
func BenchmarkEndogenousScheduler(b *testing.B) {
	var r experiments.EndogenousResult
	for i := 0; i < b.N; i++ {
		r = must(experiments.RunEndogenousCtx(context.Background(), experiments.DefaultEndogenousConfig(1), nil))
	}
	b.ReportMetric(100*r.PrimeUtilization, "prime-util-%")
	b.ReportMetric(100*r.PilotCoverage, "pilot-coverage-%")
}

// BenchmarkFederatedDay runs the cluster-of-clusters experiment: 4
// heterogeneous sites × 256 nodes behind the routing front door at
// 100 QPS. The horizon is compressed to 2 hours (720k requests) so
// the CI allocation ratchet stays fast; per request the door adds no
// allocations on top of the pooled whisk path Fig 5b/6b gate, so the
// ratchet catches any regression in either layer.
func BenchmarkFederatedDay(b *testing.B) {
	b.ReportAllocs()
	var r experiments.FederatedResult
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFederatedConfig(1)
		cfg.Horizon = 2 * time.Hour
		cfg.Routing = []string{"capacity-weighted"}
		r = must(experiments.RunFederatedCtx(context.Background(), cfg, nil))
	}
	run := r.Runs[0]
	b.ReportMetric(100*run.Load.SuccessShare, "success-%")
	b.ReportMetric(100*run.SpillShare(), "spill-%")
	b.ReportMetric(float64(run.P95.Milliseconds()), "p95-ms")
	b.ReportMetric(run.GlobalHealthyAvg, "healthy-avg")
}

// BenchmarkRequestPath measures one invocation end to end through the
// pooled whisk request path: ingress → route → publish → pull →
// execute → result → egress on a single registered invoker, run through
// five virtual seconds in which nothing else happens. This is
// the micro-benchmark behind the Fig. 5b/6b numbers; steady state must
// stay allocation-free (the CI gate ratchets allocs/op).
func BenchmarkRequestPath(b *testing.B) {
	b.ReportAllocs()
	sim := des.New()
	mb := bus.New[*whisk.Invocation](sim, nil, 1)
	cfg := whisk.DefaultControllerConfig()
	cfg.PoolInvocations = true
	ctrl := whisk.NewController(sim, mb, cfg, 2)
	ctrl.RegisterAction(&whisk.Action{
		Name:          "bench",
		MemoryMB:      256,
		Exec:          whisk.FixedExec(10 * time.Millisecond),
		Interruptible: true,
	})
	ctrl.Register(whisk.NewInvoker(whisk.DefaultInvokerConfig(), 3))
	for i := 0; i < 4; i++ { // warm the invocation, message, and des pools
		ctrl.Invoke("bench", nil)
		sim.RunFor(5 * time.Second)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Invoke("bench", nil)
		sim.RunFor(5 * time.Second)
	}
	b.StopTimer()
	if want := b.N + 4; ctrl.NSuccess+ctrl.NFailed != want {
		b.Fatalf("completed %d of %d invocations", ctrl.NSuccess+ctrl.NFailed, want)
	}
}

// BenchmarkWeekDayStreaming runs the week-day engine: a 7-day
// fib-calibrated horizon on a small cluster slice with the O(1)-memory
// streaming collectors (t-digest latencies, windowed series, streaming
// worker-state accounting). The B/op ratchet plus the metrics-bytes
// custom metric are the CI teeth of the memory claim: retained metric
// state must stay flat in the horizon (≈1.2M requests summarized in a
// few hundred KB), so any change that reintroduces horizon-linear
// buffering on the streaming path fails the gate.
func BenchmarkWeekDayStreaming(b *testing.B) {
	b.ReportAllocs()
	var r DayResult
	for i := 0; i < b.N; i++ {
		cfg := experiments.FibDay(1)
		cfg.Nodes = 64
		cfg.Horizon = 7 * 24 * time.Hour
		cfg.MeanIdleNodes = 4
		cfg.SaturatedFraction = 0.02
		cfg.QPS = 2
		cfg.NumActions = 20
		cfg.SleepExec = 50 * time.Millisecond
		cfg.Streaming = true
		r = must(experiments.RunDayCtx(context.Background(), cfg, nil))
	}
	b.ReportMetric(float64(r.MetricsBytes), "metrics-bytes")
	b.ReportMetric(100*r.Load.SuccessShare, "success-%")
	b.ReportMetric(float64(r.Load.MedianLatency.Milliseconds()), "median-ms")
}

// BenchmarkWeekDaySetup measures the set-up of the bench's week-stream
// run: the week-day scenario on the 2,239-node cluster over 7 days at
// 2 QPS with the streaming collectors. One op runs scenario.Run up to its
// first progress callback and cancels it there, as the bench's set-up
// timing does: it generates the week's idle trace, loads it into the
// Slurm emulator, builds the deployment and runs the first minute. The
// emulator streams the trace's boundaries into reserved queue places
// instead of queuing all of them, so the B/op ratchet fails a change that
// makes set-up grow with the horizon again.
func BenchmarkWeekDaySetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		progressed := false
		_, err := scenario.Run(ctx, "week-day",
			scenario.WithSeed(7000),
			scenario.WithNodes(experiments.PrometheusNodes),
			scenario.WithHorizon(experiments.Week),
			scenario.WithQPS(2),
			scenario.WithOption("streaming", "true"),
			scenario.WithProgress(func(_, _ time.Duration) {
				progressed = true
				cancel()
			}))
		cancel()
		if !progressed {
			b.Fatalf("set-up run reported no progress: %v", err)
		}
	}
}

// BenchmarkTraceGeneration measures the idle-process generator itself
// (the substrate every experiment builds on).
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		workload.DefaultIdleProcess(2239, 24*time.Hour, int64(i)).Generate()
	}
}

// benchSite adapts a whisk.Controller to router.Site for the
// signal-path benchmark below (core.Site carries a full deployment;
// here only the controller's telemetry is under test).
type benchSite struct{ c *whisk.Controller }

func (s benchSite) Invoke(action string, done func(*whisk.Invocation)) { s.c.Invoke(action, done) }
func (s benchSite) HealthyInvokers() int                               { return s.c.HealthyCount() }
func (s benchSite) Utilization() float64                               { return s.c.Utilization() }
func (s benchSite) QueueDepth() int                                    { return s.c.QueueDepth() }
func (s benchSite) FastLaneDepth() int                                 { return s.c.FastLaneDepth() }
func (s benchSite) DrainingInvokers() int                              { return s.c.DrainingCount() }

var bigClusterActions = [8]string{"bc-0", "bc-1", "bc-2", "bc-3", "bc-4", "bc-5", "bc-6", "bc-7"}

// bigClusterRefreshEvery is the snapshot cadence of the measured loop:
// one front-door Refresh per 64 routing decisions, a busier grid than
// the 1 s default at 1000 QPS so the refresh term is well represented
// in the per-request cost.
const bigClusterRefreshEvery = 64

// bigClusterSink defeats dead-code elimination of the pick loops.
var bigClusterSink int

// routingFederation builds a 4-site federation with the given total
// invoker count registered and snapshot routing enabled — the
// control-plane state of a big federated run, without its traffic.
func routingFederation(invokers int) *router.FrontDoor {
	const nSites = 4
	sites := make([]router.Site, nSites)
	for s := range sites {
		sim := des.New()
		mb := bus.New[*whisk.Invocation](sim, nil, int64(s+1))
		ctrl := whisk.NewController(sim, mb, whisk.DefaultControllerConfig(), int64(s+100))
		for i := 0; i < invokers/nSites; i++ {
			ctrl.Register(whisk.NewInvoker(whisk.DefaultInvokerConfig(), int64(i+1)))
		}
		sites[s] = benchSite{ctrl}
	}
	fd := router.NewFrontDoor(sites, router.MustNew("capacity-weighted"))
	fd.EnableSnapshots()
	return fd
}

// measureRoutingNs times the steady-state control-plane cost of one
// routed request — the periodic snapshot Refresh amortized over the
// routing decisions between refreshes, plus the policy Pick itself —
// and returns ns per request (best of three rounds, so a CI
// scheduling hiccup in one round cannot skew the scaling ratio).
func measureRoutingNs(fd *router.FrontDoor) float64 {
	const picks = 1 << 18
	pol := fd.Policy()
	best := 0.0
	for round := 0; round < 3; round++ {
		start := time.Now()
		for i := 0; i < picks; i++ {
			if i%bigClusterRefreshEvery == 0 {
				fd.Refresh()
			}
			a := bigClusterActions[i&7]
			bigClusterSink += pol.Pick(fd, a, fd.Home(a))
		}
		if ns := float64(time.Since(start)) / picks; best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// BenchmarkBigClusterRouting pins the tentpole claim of the O(1)
// control-plane telemetry: the per-request routing cost of a
// federation is flat in cluster size. It measures the snapshot-refresh
// + pick loop over 4 sites at two scales — 1k and 16k total invokers —
// and fails if 16k costs more than 1.5× the 1k value (the pre-O(1)
// scans fail this by construction: their Refresh walked every invoker
// of every site). The reported ratio is gated against BENCH_ci.json,
// and the b.N loop keeps the 16k pick path under the allocation
// ratchet.
func BenchmarkBigClusterRouting(b *testing.B) {
	b.ReportAllocs()
	fd16k := routingFederation(16384)
	pol := fd16k.Policy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%bigClusterRefreshEvery == 0 {
			fd16k.Refresh()
		}
		a := bigClusterActions[i&7]
		bigClusterSink += pol.Pick(fd16k, a, fd16k.Home(a))
	}
	b.StopTimer()
	ns16k := measureRoutingNs(fd16k)
	ns1k := measureRoutingNs(routingFederation(1024))
	ratio := ns16k / ns1k
	if ratio > 1.5 {
		b.Fatalf("per-request routing cost not flat: 16k invokers %.1f ns vs 1k invokers %.1f ns (ratio %.2f > 1.5)",
			ns16k, ns1k, ratio)
	}
	b.ReportMetric(ns1k, "ns-per-pick-1k")
	b.ReportMetric(ns16k, "ns-per-pick-16k")
	b.ReportMetric(ratio, "ratio-16k-vs-1k")
}
