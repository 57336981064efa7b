package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/faasload"
	"repro/internal/lambda"
	"repro/internal/loadgen"
	"repro/internal/stats"
	"repro/internal/whisk"
)

// ScientificConfig parameterizes the paper's named future-work
// experiment (§VII): HPC-Whisk under a representative scientific FaaS
// workload — heterogeneous execution times calibrated to the Azure
// Functions characterization, Zipf-skewed popularity, long-running
// non-interruptible functions, and the Alg. 1 commercial fallback.
type ScientificConfig struct {
	Nodes     int
	Horizon   time.Duration
	Seed      int64
	Functions int
	QPS       float64

	// Policy names the pilot-supply policy in the policy registry.
	// Empty defaults to "fib".
	Policy string

	// UseWrapper routes calls through the Alg. 1 fallback so 503s are
	// absorbed by the commercial cloud; false measures the raw cluster.
	UseWrapper bool

	// CheckpointInterval > 0 lifts the §VII long-function cap: every
	// function — including the long-running ones that otherwise opt out
	// of mid-execution interruption — checkpoints at this cadence and
	// becomes interruptible, since a durable checkpoint makes interrupt
	// recoverable. With UseWrapper, client timeouts that left
	// checkpointed progress additionally resume on the commercial cloud
	// (Wrapper.ResumeTimeouts). 0 keeps today's behavior exactly.
	CheckpointInterval time.Duration
}

// DefaultScientificConfig returns a tractable slice of the production
// setup (the full cluster works too; this keeps bench times short).
func DefaultScientificConfig(seed int64) ScientificConfig {
	return ScientificConfig{
		Nodes:      512,
		Horizon:    6 * time.Hour,
		Seed:       seed,
		Functions:  200,
		QPS:        2,
		Policy:     "fib",
		UseWrapper: true,
	}
}

// PolicyName resolves the effective supply-policy name: the Policy
// field when set, else the paper's fib default.
func (cfg ScientificConfig) PolicyName() string {
	if cfg.Policy != "" {
		return cfg.Policy
	}
	return "fib"
}

// ClassStats summarizes outcomes for one function class.
type ClassStats struct {
	Invocations int
	Success     int
	Lost        int
	Failed      int
	Median      time.Duration
	P95         time.Duration
}

// SuccessShare is successes over completed invocations of the class.
func (c ClassStats) SuccessShare() float64 {
	if c.Invocations == 0 {
		return 0
	}
	return float64(c.Success) / float64(c.Invocations)
}

// ScientificResult is the outcome of the scientific-workload run.
type ScientificResult struct {
	Config  ScientificConfig
	Load    loadgen.Report
	ByClass map[faasload.Class]ClassStats

	// FallbackShare is the fraction of calls served by the commercial
	// cloud through Alg. 1.
	FallbackShare float64

	PilotsStarted int
	Handoffs      int

	// Work is the compute ledger; CloudResumes counts checkpointed
	// executions the wrapper continued on the commercial cloud.
	Work         stats.WorkCounters
	CloudResumes int
}

// RunScientificCtx executes the experiment with cooperative
// cancellation and progress.
func RunScientificCtx(ctx context.Context, cfg ScientificConfig, progress ProgressFunc) (ScientificResult, error) {
	day := FibDay(cfg.Seed)
	day.Policy = cfg.PolicyName()
	wl := faasload.DefaultSpec(cfg.Functions, cfg.Seed+1).Build()
	// The model attaches unconditionally (disabled at interval 0 — no
	// draws, no behavior change); enabling it also lifts the long-class
	// interruption opt-out, the cap checkpointing exists to remove.
	ckpt := checkpoint.WithInterval(cfg.CheckpointInterval)
	for _, f := range wl.Functions {
		f.Action.Checkpoint = ckpt
		if cfg.CheckpointInterval > 0 {
			f.Action.Interruptible = true
		}
	}

	sysCfg := core.DefaultSystemConfig(cfg.Nodes, cfg.PolicyName())
	sysCfg.Seed = cfg.Seed + 2
	// Long functions need headroom beyond the default 60 s timeout.
	sysCfg.Controller.ActionTimeout = 10 * time.Minute
	sys := core.NewSite(des.New(), sysCfg)

	trCfg := day.TraceConfig()
	trCfg.Nodes = cfg.Nodes
	trCfg.Horizon = cfg.Horizon
	// Scale the idle surface with the cluster slice (the full 2,239-node
	// day carries ≈14 idle nodes on average).
	trCfg.MeanIdleNodes = day.MeanIdleNodes * float64(cfg.Nodes) / float64(day.Nodes)
	if trCfg.MeanIdleNodes < 8 {
		// Keep enough capacity that the heterogeneous (heavy-tailed)
		// execution times do not overload a tiny slice outright.
		trCfg.MeanIdleNodes = 8
	}
	sys.LoadTrace(trCfg.Generate())

	wl.Register(sys.Ctrl)

	var backend loadgen.Backend
	var fb *lambda.Client
	if cfg.UseWrapper {
		fb = lambda.NewClient(sys.Sim, lambda.DefaultClientConfig(), cfg.Seed+3)
		for _, f := range wl.Functions {
			fb.RegisterAction(f.Action.Name, f.Action.Exec)
		}
		wr := core.NewWrapper(sys.Sim, sys.Ctrl, fb)
		wr.ResumeTimeouts = cfg.CheckpointInterval > 0
		backend = wr
	} else {
		backend = sys.Ctrl
	}

	// Per-class accounting wraps the backend.
	byClass := map[faasload.Class]*classAcc{
		faasload.ClassShort:  {},
		faasload.ClassMedium: {},
		faasload.ClassLong:   {},
	}
	acc := &classifyingBackend{
		inner:   backend,
		sim:     sys.Sim,
		classOf: wl.ClassOf,
		acc:     byClass,
	}

	gen := loadgen.New(sys.Sim, acc, loadgen.Config{
		QPS:      cfg.QPS,
		Actions:  wl.Names(),
		Weights:  wl.Weights(),
		Seed:     cfg.Seed + 4,
		Duration: cfg.Horizon,
	})
	gen.Start()
	sys.Start()
	const drain = 12 * time.Minute // long functions need a long tail
	total := cfg.Horizon + drain
	if err := sys.RunCtx(ctx, cfg.Horizon, 0, offsetProgress(progress, 0, total)); err != nil {
		return ScientificResult{}, err
	}
	if err := sys.RunCtx(ctx, drain, 0, offsetProgress(progress, cfg.Horizon, total)); err != nil {
		return ScientificResult{}, err
	}

	res := ScientificResult{
		Config:        cfg,
		Load:          gen.Report(),
		ByClass:       map[faasload.Class]ClassStats{},
		PilotsStarted: sys.Manager.PilotsStarted,
		Handoffs:      sys.Manager.Handoffs,
		Work:          sys.Ctrl.Work,
	}
	for class, a := range byClass {
		res.ByClass[class] = a.stats()
	}
	if w, ok := backend.(*core.Wrapper); ok {
		if calls := w.PrimaryCalls + w.FallbackCalls; calls > 0 {
			res.FallbackShare = float64(w.FallbackCalls) / float64(calls)
		}
		res.CloudResumes = w.CloudResumes
	}
	return res, nil
}

type classAcc struct {
	n, success, lost, failed int
	lat                      stats.Sample
}

func (a *classAcc) stats() ClassStats {
	out := ClassStats{
		Invocations: a.n, Success: a.success, Lost: a.lost,
		Failed: a.failed,
	}
	if a.lat.Len() > 0 {
		out.Median = time.Duration(a.lat.Median() * float64(time.Second))
		out.P95 = time.Duration(a.lat.Quantile(0.95) * float64(time.Second))
	}
	return out
}

type classifyingBackend struct {
	inner   loadgen.Backend
	sim     interface{ Now() time.Duration }
	classOf func(string) faasload.Class
	acc     map[faasload.Class]*classAcc
}

func (c *classifyingBackend) Invoke(action string, done func(*whisk.Invocation)) {
	class := c.classOf(action)
	a := c.acc[class]
	sent := c.sim.Now()
	c.inner.Invoke(action, func(inv *whisk.Invocation) {
		if a != nil {
			a.n++
			switch inv.Status {
			case whisk.StatusSuccess:
				a.success++
				a.lat.AddDuration(c.sim.Now() - sent)
			case whisk.StatusTimeout:
				a.lost++
			case whisk.StatusFailed:
				a.failed++
			}
		}
		if done != nil {
			done(inv)
		}
	})
}

// Render prints the per-class outcome table.
func (r ScientificResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Scientific FaaS workload (§VII future work) — %d functions, %.0f QPS, %v, %s\n",
		r.Config.Functions, r.Config.QPS, r.Config.Horizon, r.Config.PolicyName())
	fmt.Fprintf(w, "  overall: %s\n", r.Load.String())
	classes := make([]faasload.Class, 0, len(r.ByClass))
	for c := range r.ByClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		s := r.ByClass[c]
		fmt.Fprintf(w, "  %-7s n=%-6d success=%5.1f%% lost=%d failed=%d median=%v p95=%v\n",
			c, s.Invocations, 100*s.SuccessShare(), s.Lost, s.Failed,
			s.Median.Round(time.Millisecond), s.P95.Round(time.Millisecond))
	}
	if r.Config.UseWrapper {
		fmt.Fprintf(w, "  commercial fallback served %.1f%% of calls\n", 100*r.FallbackShare)
	}
	fmt.Fprintf(w, "  pilots=%d handoffs=%d\n", r.PilotsStarted, r.Handoffs)
	// Config-gated so checkpoint-free renders are unchanged.
	if r.Config.CheckpointInterval > 0 {
		fmt.Fprintf(w, "  checkpointing (%v interval): %d dumps, %d resumes (%d cloud); wasted %v, lost %v\n",
			r.Config.CheckpointInterval, r.Work.Checkpoints, r.Work.Resumed, r.CloudResumes,
			r.Work.Wasted.Round(time.Millisecond), r.Work.Lost.Round(time.Millisecond))
	}
}
