package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dist"
	"repro/internal/loadgen"
	"repro/internal/stats"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// DayConfig parameterizes a 24-hour production experiment (§V-A/B/C).
// The fib and var runs of the paper happened on different working days
// with visibly different idle surfaces (11.85 vs 7.38 available nodes
// on average; 0.6% vs 9.44% zero-available states), so the trace
// calibration is per-day.
type DayConfig struct {
	// Policy names the pilot-supply policy in the policy registry
	// ("fib", "var", "adaptive", "lease", "hybrid", or anything
	// registered by the embedding program). Empty defaults to "fib".
	Policy string

	Nodes   int
	Horizon time.Duration
	Seed    int64

	// Trace, when set, is used verbatim instead of the generated
	// per-day calibration — the checkpoint frontier drives hand-built
	// periodic idle windows through the same pipeline. The calibration
	// fields below are ignored then.
	Trace *workload.Trace

	// Trace calibration for the day.
	MeanIdleNodes     float64
	SaturatedFraction float64

	// Regime structure and calm-tail weight of the day. The fib day was
	// calm (long windows: invoker ready spans averaged 23 min); the var
	// day was contended (9.44%% zero-available states). With the heavy
	// Pareto tails, horizon truncation eats ~20%% of the target mean, so
	// the day targets sit above the measured averages they reproduce.
	ContendedMean time.Duration
	CalmMean      time.Duration
	CalmTailP     float64
	CalmAlpha     float64

	// LongSaturations mixes occasional 20-90 minute full-cluster
	// saturations into the day (the var day had an 85-minute stretch
	// with no invoker, §V-B2).
	LongSaturations bool

	// Load generation (§V-C): QPS over NumActions sleep functions of
	// SleepExec each. Zero QPS disables the responsiveness experiment.
	QPS        float64
	NumActions int
	SleepExec  time.Duration

	// GracefulHandoff / InterruptRunning expose the §III-C machinery
	// for ablations.
	GracefulHandoff  bool
	InterruptRunning bool

	// CheckpointInterval > 0 attaches the calibrated checkpoint model
	// (internal/checkpoint) with the interval pinned to this constant
	// to every load-generated action: executions dump state each
	// interval and an interrupted execution resumes from its last
	// checkpoint on a successor pilot instead of losing all progress.
	// 0 attaches the same model disabled, which draws no RNG — the
	// golden-pinned runs are byte-identical either way.
	CheckpointInterval time.Duration

	// ActionTimeout > 0 overrides the controller's client-visible
	// timeout (default 60 s). The checkpoint frontier stretches it past
	// the function duration so pilot loss and resume — not the client
	// timer — decide each request's outcome.
	ActionTimeout time.Duration

	// Streaming switches every metric collector in the run (loadgen
	// series and latencies, worker-state series, Slurm-level logger) to
	// O(1)-memory streaming sketches, for horizons where buffering
	// per-request samples is the memory wall (the week-day scenario).
	// Counters, shares, and time means stay exact; quantiles come
	// within stats.Epsilon rank error; the per-minute figure panels
	// (SimReadyPerMinute etc.) are skipped. Simulation behavior — RNG
	// draws, event order, every counter — is identical either way. Off
	// by default so the golden-pinned artifacts keep exact collection.
	Streaming bool
}

// FibDay returns the March 17th, 2022 configuration (§V-B1).
func FibDay(seed int64) DayConfig {
	return DayConfig{
		Policy:            "fib",
		Nodes:             PrometheusNodes,
		Horizon:           24 * time.Hour,
		Seed:              seed,
		MeanIdleNodes:     14.4, // realizes ≈11.85 after truncation
		SaturatedFraction: 0.006,
		ContendedMean:     time.Hour,
		CalmMean:          4 * time.Hour,
		CalmTailP:         0.45,
		CalmAlpha:         1.65,
		QPS:               10,
		NumActions:        100,
		SleepExec:         10 * time.Millisecond,
		GracefulHandoff:   true,
		InterruptRunning:  true,
	}
}

// VarDay returns the March 21st, 2022 configuration (§V-B2).
func VarDay(seed int64) DayConfig {
	return DayConfig{
		Policy:            "var",
		Nodes:             PrometheusNodes,
		Horizon:           24 * time.Hour,
		Seed:              seed,
		MeanIdleNodes:     10.2, // realizes ≈7.4 after truncation
		SaturatedFraction: 0.0944,
		ContendedMean:     2 * time.Hour,
		CalmMean:          2 * time.Hour,
		CalmTailP:         0.38,
		CalmAlpha:         1.7,
		LongSaturations:   true,
		QPS:               10,
		NumActions:        100,
		SleepExec:         10 * time.Millisecond,
		GracefulHandoff:   true,
		InterruptRunning:  true,
	}
}

// PolicyName resolves the effective supply-policy name: the Policy
// field when set, else the paper's fib default.
func (cfg DayConfig) PolicyName() string {
	if cfg.Policy != "" {
		return cfg.Policy
	}
	return "fib"
}

// figLabel and tableLabel place the run in the paper's numbering; the
// policies beyond the paper's two get the policy name instead.
func (cfg DayConfig) figLabel() string {
	switch cfg.PolicyName() {
	case "fib":
		return "5"
	case "var":
		return "6"
	default:
		return "X:" + cfg.PolicyName()
	}
}

func (cfg DayConfig) tableLabel() string {
	switch cfg.PolicyName() {
	case "fib":
		return "II"
	case "var":
		return "III"
	default:
		return "X:" + cfg.PolicyName()
	}
}

// DayResult bundles the three perspectives of Tables II/III plus the
// Fig. 5b/6b responsiveness series.
type DayResult struct {
	Config DayConfig

	// Simulation: the clairvoyant a-posteriori upper bound on the same
	// trace (A1 lengths for fib, C2 for var).
	Sim coverage.Result

	// SlurmLevel: the 10-second poller's perspective.
	SlurmLevel core.SlurmLevelStats

	// OW: the OpenWhisk-level worker accounting.
	OW core.OWLevelStats

	// Load: the responsiveness report; Series are the per-minute
	// outcome counts of Figs. 5b/6b (a buffered MinuteSeries by
	// default; under Streaming a WindowedCounts retaining only the
	// recent tail). Latencies is the collector behind
	// Load.MedianLatency — exact Sample by default, TDigest under
	// Streaming.
	Load      loadgen.Report
	Series    stats.SeriesCollector
	Latencies stats.Collector

	// The three worker-count panels of Figs. 5a/6a, per minute:
	// clairvoyant simulation, Slurm-level poller, OpenWhisk-level.
	SimReadyPerMinute []float64
	SlurmPerMinute    []float64
	HealthyPerMinute  []float64

	// Emulator counters.
	PilotsStarted int
	Submitted     int
	Preempted     int
	Handoffs      int

	// Work is the compute-accounting ledger (goodput / wasted / lost,
	// checkpoint and restore overheads). Goodput accrues on every run;
	// the checkpoint-specific fields stay zero unless
	// CheckpointInterval > 0.
	Work stats.WorkCounters

	// MetricsBytes is the retained footprint of the run's metric
	// collectors (loadgen series + latencies, worker-state series,
	// Slurm logger) — the quantity the week-day benchmark pins flat in
	// horizon under Streaming.
	MetricsBytes int
}

// Digests exposes the run's mergeable latency sketch for sweep-level
// aggregation (sweep merges per-replica digests instead of
// concatenating samples). Nil on buffered (non-Streaming) runs.
func (r DayResult) Digests() map[string]*stats.TDigest {
	if d, ok := r.Latencies.(*stats.TDigest); ok {
		return map[string]*stats.TDigest{"latency-s": d}
	}
	return nil
}

// Coverage returns the live Slurm-level coverage (used time share).
func (r DayResult) Coverage() float64 { return r.SlurmLevel.ShareUsed }

// TraceConfig builds the day's calibrated idle-process configuration
// (shared with other experiments that reuse per-day calibrations).
func (cfg DayConfig) TraceConfig() workload.IdleProcessConfig {
	wl := workload.DefaultIdleProcess(cfg.Nodes, cfg.Horizon, cfg.Seed)
	wl.MeanIdleNodes = cfg.MeanIdleNodes
	wl.SaturatedFraction = cfg.SaturatedFraction
	if cfg.ContendedMean > 0 {
		wl.ContendedMean = cfg.ContendedMean
	}
	if cfg.CalmMean > 0 {
		wl.CalmMean = cfg.CalmMean
	}
	if cfg.CalmTailP > 0 {
		wl.CalmPeriod = dist.CalmIdlePeriodTail(cfg.CalmTailP, cfg.CalmAlpha)
	}
	if cfg.LongSaturations {
		wl.SaturationSeconds = dist.NewMixture(
			dist.Weighted{W: 0.92, D: wl.SaturationSeconds},
			dist.Weighted{W: 0.08, D: dist.Uniform{Lo: 20 * 60, Hi: 90 * 60}},
		)
	}
	return wl
}

// memberTrace builds the day's trace calibration for a member cluster
// of the given size and horizon: the paper day's idle surface scales
// with the cluster, with a floor of 8 idle nodes so a small slice keeps
// enough capacity for heavy-tailed execution times.
func (cfg DayConfig) memberTrace(nodes int, horizon time.Duration) workload.IdleProcessConfig {
	wl := cfg.TraceConfig()
	wl.Nodes = nodes
	wl.Horizon = horizon
	wl.MeanIdleNodes = max(cfg.MeanIdleNodes*float64(nodes)/float64(cfg.Nodes), 8)
	return wl
}

// ProgressFunc observes an experiment's advance through virtual time.
// done counts from 0 to total; implementations must be cheap (they run
// once per simulated epoch) and must not touch the simulation.
type ProgressFunc = func(done, total time.Duration)

// offsetProgress shifts a ProgressFunc so multi-phase experiments
// (run + drain, or several sequential runs) report one monotone range.
func offsetProgress(p ProgressFunc, off, total time.Duration) ProgressFunc {
	if p == nil {
		return nil
	}
	return func(done, _ time.Duration) { p(off+done, total) }
}

// dayDrain is the post-horizon window RunDayCtx gives in-flight work.
const dayDrain = 5 * time.Minute

// runWithDrain advances a run through its horizon and then a drain that
// lets in-flight work finish past it, reporting one monotone progress
// range over both.
func runWithDrain(ctx context.Context, run func(context.Context, time.Duration, ProgressFunc) error, horizon, drain time.Duration, progress ProgressFunc) error {
	total := horizon + drain
	if err := run(ctx, horizon, offsetProgress(progress, 0, total)); err != nil {
		return err
	}
	return run(ctx, drain, offsetProgress(progress, horizon, total))
}

// RunDayCtx executes one full production-day experiment with
// cooperative cancellation and progress: the simulation advances in
// core.DefaultEpoch chunks of virtual time, checking ctx between
// chunks, and a completed run is bit-identical to one unchunked run.
// On cancellation the partial simulation is abandoned and only the
// error returns.
func RunDayCtx(ctx context.Context, cfg DayConfig, progress ProgressFunc) (DayResult, error) {
	tr := cfg.Trace
	if tr == nil {
		tr = cfg.TraceConfig().Generate()
	}

	// A production day is a 1-site federation: the front door adds no
	// events, no RNG draws, and no allocations, so this path reproduces
	// the pre-federation single-cluster run byte-for-byte (pinned by the
	// day goldens).
	fed := core.NewFederation(core.FederationConfig{Sites: []core.SiteConfig{systemConfig(cfg)}})
	sys := fed.Sites[0]
	sys.LoadTrace(tr)

	var gen *loadgen.Generator
	if cfg.QPS > 0 {
		actions := loadgen.ActionNames("sleep", cfg.NumActions)
		for _, name := range actions {
			sys.Ctrl.RegisterAction(&whisk.Action{
				Name:          name,
				MemoryMB:      256,
				Exec:          whisk.FixedExec(cfg.SleepExec),
				Interruptible: true,
				Checkpoint:    checkpoint.WithInterval(cfg.CheckpointInterval),
			})
		}
		gen = loadgen.New(fed.Sim, fed,
			loadgen.Config{QPS: cfg.QPS, Actions: actions, Duration: cfg.Horizon,
				BucketLen: time.Minute, Streaming: cfg.Streaming})
		gen.Start()
	}

	fed.Start()
	// fed.RunCtx is byte-identical to the pre-federation sys.RunCtx
	// this path grew from.
	if err := runWithDrain(ctx, fed.RunCtx, cfg.Horizon, dayDrain, progress); err != nil {
		return DayResult{}, err
	}

	set := coverage.Set{Name: "A1", Lengths: core.SetA1}
	if cfg.PolicyName() == "var" {
		set = coverage.TableISets()[5] // C2
	}

	res := DayResult{
		Config:        cfg,
		Sim:           coverage.Simulate(tr, set, coverage.DefaultConfig()),
		SlurmLevel:    sys.Logger.Stats(),
		OW:            sys.Manager.OWStats(sys.Sim.Now()),
		PilotsStarted: sys.Manager.PilotsStarted,
		Submitted:     sys.Manager.Submitted,
		Preempted:     sys.Slurm.Preempted,
		Handoffs:      sys.Manager.Handoffs,
		Work:          sys.Ctrl.Work,
	}
	if gen != nil {
		res.Load = gen.Report()
		res.Series = gen.Series
		res.Latencies = gen.Latencies
		res.MetricsBytes += gen.Series.Footprint() + gen.Latencies.Footprint()
	}
	res.MetricsBytes += sys.Logger.Footprint() +
		sys.Manager.States.Warming.Footprint() +
		sys.Manager.States.Healthy.Footprint() +
		sys.Manager.States.Irresp.Footprint()
	// The live per-minute figure panels require the buffered series; a
	// streaming run deliberately doesn't retain them, nor the
	// simulation's panel beside them.
	if !cfg.Streaming {
		res.SimReadyPerMinute = res.Sim.ReadyPerMinute
		if healthy, ok := sys.Manager.States.Healthy.(*stats.TimeWeighted); ok {
			res.HealthyPerMinute = healthy.Buckets(time.Minute)
		}
		res.SlurmPerMinute = slurmPerMinute(sys.Logger.Entries, cfg.Horizon)
	}
	return res, nil
}

// slurmPerMinute downsamples the poller's pilot counts into per-minute
// averages (the middle panel of Figs. 5a/6a).
func slurmPerMinute(entries []core.SlurmLogEntry, horizon time.Duration) []float64 {
	n := int(horizon / time.Minute)
	if n == 0 {
		return nil
	}
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, e := range entries {
		i := int(e.At / time.Minute)
		if i >= 0 && i < n {
			sums[i] += float64(e.Pilot)
			counts[i]++
		}
	}
	out := make([]float64, n)
	for i := range out {
		if counts[i] > 0 {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

// RenderSeries prints the three worker-count panels of Figs. 5a/6a as
// aligned per-minute columns.
func (r DayResult) RenderSeries(w io.Writer) {
	fmt.Fprintf(w, "Fig %sa — workers per minute (sim / slurm / ow-healthy)\n",
		r.Config.figLabel())
	n := len(r.SimReadyPerMinute)
	if len(r.SlurmPerMinute) < n {
		n = len(r.SlurmPerMinute)
	}
	if len(r.HealthyPerMinute) < n {
		n = len(r.HealthyPerMinute)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "  %5d  %6.1f %6.1f %6.1f\n", i,
			r.SimReadyPerMinute[i], r.SlurmPerMinute[i], r.HealthyPerMinute[i])
	}
}

func systemConfig(cfg DayConfig) core.SystemConfig {
	sc := core.DefaultSystemConfig(cfg.Nodes, cfg.PolicyName())
	sc.Seed = cfg.Seed + 1000
	sc.Manager.GracefulHandoff = cfg.GracefulHandoff
	sc.Manager.InterruptRunning = cfg.InterruptRunning
	sc.StreamingStats = cfg.Streaming
	if cfg.ActionTimeout > 0 {
		sc.Controller.ActionTimeout = cfg.ActionTimeout
	}
	return sc
}

// Render prints the Table II/III layout plus the §V-C summary.
func (r DayResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Table %s — %s day (%d nodes, %v)\n",
		r.Config.tableLabel(), r.Config.PolicyName(), r.Config.Nodes, r.Config.Horizon)
	fmt.Fprintf(w, "  %-22s %5s-%s-%-5s %6s   %-9s %-9s\n",
		"perspective", "25p", "50p", "75p", "avg", "used", "not-used")
	fmt.Fprintf(w, "  Simulation  warm-up   %5.0f %3.0f %5.0f %6.2f   %8.2f%% %8.2f%%\n",
		0.0, 0.0, 0.0, r.Sim.ReadyAvg*r.Sim.ShareWarmup/maxF(r.Sim.ShareReady, 1e-9),
		100*r.Sim.ShareWarmup, 100*r.Sim.ShareNotUsed)
	fmt.Fprintf(w, "  Simulation  ready     %5.0f %3.0f %5.0f %6.2f   %8.2f%%\n",
		r.Sim.ReadyP25, r.Sim.ReadyP50, r.Sim.ReadyP75, r.Sim.ReadyAvg, 100*r.Sim.ShareReady)
	s := r.SlurmLevel
	fmt.Fprintf(w, "  Slurm-level all       %5.0f %3.0f %5.0f %6.2f   %8.2f%% %8.2f%%\n",
		s.WorkerP25, s.WorkerP50, s.WorkerP75, s.WorkerAvg, 100*s.ShareUsed, 100*s.ShareNotUsed)
	o := r.OW
	fmt.Fprintf(w, "  OW-level    warm-up   %19s %6.2f\n", "", o.WarmupAvg)
	fmt.Fprintf(w, "  OW-level    healthy   %5.0f %3.0f %5.0f %6.2f\n",
		o.HealthyP25, o.HealthyP50, o.HealthyP75, o.HealthyAvg)
	fmt.Fprintf(w, "  OW-level    irresp.   %19s %6.2f\n", "", o.IrrespAvg)
	fmt.Fprintf(w, "  available: avg %.2f / median %.0f; zero-available states %d; zero-worker states %d\n",
		s.AvailableAvg, s.AvailableMedian, s.ZeroAvailableStates, s.ZeroWorkerStates)
	fmt.Fprintf(w, "  coverage: live %.1f%% vs simulated upper bound %.1f%%\n",
		100*s.ShareUsed, 100*r.Sim.Coverage())
	fmt.Fprintf(w, "  no-invoker: total %v, longest %v; ready spans avg %v / median %v\n",
		o.NoInvokerTotal.Round(time.Minute), o.NoInvokerLongest.Round(time.Minute),
		o.ReadySpanAvg.Round(time.Minute), o.ReadySpanMedian.Round(time.Minute))
	if r.Config.QPS > 0 {
		fmt.Fprintf(w, "  responsiveness (Fig %sb): %s\n",
			r.Config.figLabel(), r.Load.String())
	}
	// Gated on configuration, not on an all-zero ledger: goodput
	// accrues on every run, and the golden-pinned runs never set
	// CheckpointInterval.
	if r.Config.CheckpointInterval > 0 {
		wk := r.Work
		fmt.Fprintf(w, "  checkpointing (%v interval): %d dumps, %d resumes (%d cloud); goodput %.1f%% of body time, wasted %v, lost %v; dump %v, restore %v\n",
			r.Config.CheckpointInterval, wk.Checkpoints, wk.Resumed, wk.CloudResumes,
			100*wk.GoodputShare(), wk.Wasted.Round(time.Millisecond), wk.Lost.Round(time.Millisecond),
			wk.CheckpointTime.Round(time.Millisecond), wk.RestoreTime.Round(time.Millisecond))
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
