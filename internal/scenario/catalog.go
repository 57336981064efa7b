package scenario

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/router"
	"repro/internal/workload"
)

// The catalog: every table and figure of the paper's evaluation plus
// the beyond-paper experiments, registered as uniform scenarios. Each
// Run builds its experiment config from the paper defaults, overlays
// the uniform axes and raw options the caller set, and executes the
// ctx-aware experiment entry point.

func init() {
	Register(dayScenario("fib-day", "Table II / Fig. 5",
		"the fib production day: fixed-length pilot bags on the March 17th calibration",
		experiments.FibDay, "fib"))
	Register(dayScenario("var-day", "Table III / Fig. 6",
		"the var production day: flexible pilots on the March 21st calibration",
		experiments.VarDay, "var"))

	Register(Spec{
		Name:        "week-day",
		Artifact:    "beyond the paper",
		Description: "a production day stretched to a week: O(1)-memory streaming metrics over a 7-day horizon",
		Axes:        []string{"nodes", "horizon", "policy", "qps"},
		Options: []OptionDoc{
			{Name: "day", Kind: KindString, Default: "fib", Help: "base calibration to stretch over the week: fib or var"},
			{Name: "actions", Kind: KindInt, Default: "100", Help: "number of sleep functions under load", min: positive},
			{Name: "sleep-exec", Kind: KindDuration, Default: "10ms", Help: "in-container execution time per call", min: nonNegative},
			{Name: "streaming", Kind: KindBool, Default: "true", Help: "O(1)-memory streaming metrics (off: buffered collectors whose memory grows with the horizon)"},
		},
		check: func(cfg Config) error {
			if d := cfg.String("day", "fib"); d != "fib" && d != "var" {
				return fmt.Errorf("scenario: week-day wants day=fib or day=var, got %q", d)
			}
			return nil
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			base, defPolicy := experiments.FibDay, "fib"
			if cfg.String("day", "fib") == "var" {
				base, defPolicy = experiments.VarDay, "var"
			}
			day := base(cfg.Seed())
			day.Policy = cfg.Policy(defPolicy)
			day.Horizon = cfg.Horizon(experiments.Week)
			day.Nodes = cfg.Nodes(day.Nodes)
			day.QPS = cfg.QPS(day.QPS)
			day.NumActions = cfg.Int("actions", day.NumActions)
			day.SleepExec = cfg.Duration("sleep-exec", day.SleepExec)
			day.Streaming = cfg.Bool("streaming", true)
			r, err := experiments.RunDayCtx(ctx, day, cfg.Progress())
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "federated-day",
		Artifact:    "beyond the paper",
		Description: "cluster-of-clusters: N sites behind the routing front door, one run per routing policy",
		Axes:        []string{"nodes", "horizon", "policy", "qps"},
		Options: []OptionDoc{
			{Name: "sites", Kind: KindInt, Default: "4", Help: "number of federated sites (alternating calm/contended days)", min: positive},
			{Name: "routing", Kind: KindString, Default: "", Help: "comma-separated routing policies to compare (default: all registered)"},
			{Name: "cloud-fallback", Kind: KindBool, Default: "false", Help: "off-load federation-wide 503s to the commercial cloud (Alg. 1)"},
			{Name: "actions", Kind: KindInt, Default: "100", Help: "number of sleep functions under load", min: positive},
			{Name: "sleep-exec", Kind: KindDuration, Default: "10ms", Help: "in-container execution time per call", min: nonNegative},
			{Name: "streaming", Kind: KindBool, Default: "false", Help: "O(1)-memory streaming metrics (t-digest quantiles, windowed series)"},
		},
		loaded: true,
		check: func(cfg Config) error {
			fc := federatedConfig(cfg)
			// Every site allocates its nodes up front, so the whole
			// federation gets the one-cluster bound.
			if fc.Sites > workload.MaxNodes/fc.NodesPerSite {
				return fmt.Errorf("scenario: federated-day wants sites × nodes ≤ %d, got %d × %d",
					workload.MaxNodes, fc.Sites, fc.NodesPerSite)
			}
			// The federation resolves these on construction, so an
			// unknown routing policy must fail here, not panic.
			for _, name := range fc.Routing {
				if _, err := router.New(name); err != nil {
					return fmt.Errorf("scenario: federated-day routing: %w", err)
				}
			}
			return nil
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			r, err := experiments.RunFederatedCtx(ctx, federatedConfig(cfg), cfg.Progress())
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "fig1",
		Artifact:    "Fig. 1",
		Description: "idle-node and idle-period distributions of a calibrated production week",
		Axes:        []string{"nodes", "horizon"},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			tr := workload.DefaultIdleProcess(
				cfg.Nodes(experiments.PrometheusNodes),
				cfg.Horizon(experiments.Week),
				cfg.Seed()).Generate()
			r, err := experiments.RunFig1Ctx(ctx, tr)
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "fig2",
		Artifact:    "Fig. 2",
		Description: "declared-walltime, runtime and slack CDFs of the calibrated HPC job stream",
		Axes:        []string{},
		Options: []OptionDoc{
			{Name: "jobs", Kind: KindInt, Default: strconv.Itoa(experiments.Fig2Jobs),
				Help: "number of jobs to generate (the monitored week had 74k)", min: positive},
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			r, err := experiments.RunFig2Ctx(ctx, cfg.Seed(), cfg.Int("jobs", experiments.Fig2Jobs))
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "fig3",
		Artifact:    "Fig. 3",
		Description: "the motivating 5-node schedule: four HPC jobs with pilots filling the gaps",
		Axes:        []string{},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			r, err := experiments.RunFig3Ctx(ctx, cfg.Seed(), cfg.Progress())
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "table1",
		Artifact:    "Table I",
		Description: "clairvoyant coverage of the six pilot job-length sets over a week trace",
		Axes:        []string{"nodes", "horizon"},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			tr := workload.DefaultIdleProcess(
				cfg.Nodes(experiments.PrometheusNodes),
				cfg.Horizon(experiments.Week),
				cfg.Seed()).Generate()
			r, err := experiments.RunTableICtx(ctx, tr)
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "fig7",
		Artifact:    "Fig. 7",
		Description: "SeBS bfs/mst/pagerank kernels on a Prometheus node vs the Lambda baseline",
		Axes:        []string{},
		Options: []OptionDoc{
			{Name: "vertices", Kind: KindInt, Default: "20000", Help: "graph size of the SeBS input", min: positive},
			{Name: "degree", Kind: KindInt, Default: "8", Help: "average degree of the generated graph", min: positive},
			{Name: "invocations", Kind: KindInt, Default: "30", Help: "warm invocations per function", min: positive},
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			r, err := experiments.RunFig7Ctx(ctx,
				cfg.Int("vertices", 20000), cfg.Int("degree", 8),
				cfg.Int("invocations", 30), cfg.Seed())
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "ablation",
		Artifact:    "§III-C ablation",
		Description: "hand-off design points (full protocol / no interrupt / hard kill, optionally + checkpointing) on one day",
		Axes:        []string{"nodes", "horizon", "policy"},
		Options: []OptionDoc{
			{Name: "streaming", Kind: KindBool, Default: "false", Help: "O(1)-memory streaming metrics (t-digest quantiles, windowed series)"},
			{Name: "checkpoint", Kind: KindBool, Default: "false", Help: "add the handoff+interrupt+checkpoint design point"},
			{Name: "checkpoint-interval", Kind: KindDuration, Default: "100ms", Help: "checkpoint cadence of the checkpoint arm", min: positive},
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			a := experiments.AblationConfig{
				Nodes:              cfg.Nodes(256),
				Horizon:            cfg.Horizon(4 * time.Hour),
				Seed:               cfg.Seed(),
				Policy:             cfg.Policy(""),
				Streaming:          cfg.Bool("streaming", false),
				Checkpoint:         cfg.Bool("checkpoint", false),
				CheckpointInterval: cfg.Duration("checkpoint-interval", 0),
			}
			r, err := experiments.RunAblationCtx(ctx, a, cfg.Progress())
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "checkpoint-frontier",
		Artifact:    "beyond the paper",
		Description: "checkpoint/restore frontier: function duration × idle-window sweep, every cell run with and without checkpointing on identical seeds",
		Axes:        []string{"nodes", "horizon", "qps"},
		Options: []OptionDoc{
			{Name: "durations", Kind: KindString, Default: "1m,3m,6m", Help: "comma-separated function body durations (the D axis)", durations: true},
			{Name: "windows", Kind: KindString, Default: "4m,8m,16m", Help: "comma-separated idle-window lengths of the periodic trace (the W axis)", durations: true},
			{Name: "gap", Kind: KindDuration, Default: "2m", Help: "full-cluster saturation between consecutive idle windows", min: nonNegative},
			{Name: "checkpoint-interval", Kind: KindDuration, Default: "20s", Help: "checkpoint cadence of the checkpointed arm", min: positive},
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			fr := experiments.DefaultFrontierConfig(cfg.Seed())
			fr.Nodes = cfg.Nodes(fr.Nodes)
			fr.Horizon = cfg.Horizon(fr.Horizon)
			fr.QPS = cfg.QPS(fr.QPS)
			fr.Gap = cfg.Duration("gap", fr.Gap)
			fr.CheckpointInterval = cfg.Duration("checkpoint-interval", fr.CheckpointInterval)
			var err error
			if fr.Durations, err = durationList(cfg.String("durations", ""), fr.Durations); err != nil {
				return nil, fmt.Errorf("scenario: checkpoint-frontier durations: %w", err)
			}
			if fr.Windows, err = durationList(cfg.String("windows", ""), fr.Windows); err != nil {
				return nil, fmt.Errorf("scenario: checkpoint-frontier windows: %w", err)
			}
			r, err := experiments.RunFrontierCtx(ctx, fr, cfg.Progress())
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "policy-comparison",
		Artifact:    "beyond the paper",
		Description: "every registered supply policy on one shared calibrated day",
		Axes:        []string{"nodes", "horizon", "qps"},
		Options: []OptionDoc{
			{Name: "policies", Kind: KindString, Default: "", Help: "comma-separated policy names (empty: all registered)"},
			{Name: "mean-idle-nodes", Kind: KindFloat, Default: "10", Help: "trace calibration: mean idle nodes", min: nonNegative},
		},
		check: func(cfg Config) error {
			// The day engine resolves these with MustNew, so an unknown
			// name must fail here, not panic mid-run.
			for _, name := range splitList(cfg.String("policies", "")) {
				if _, err := policy.New(name); err != nil {
					return fmt.Errorf("scenario: policy-comparison policies: %w", err)
				}
			}
			return nil
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			pc := experiments.DefaultPolicyComparisonConfig(cfg.Seed())
			pc.Nodes = cfg.Nodes(pc.Nodes)
			pc.Horizon = cfg.Horizon(pc.Horizon)
			pc.QPS = cfg.QPS(pc.QPS)
			pc.MeanIdleNodes = cfg.Float("mean-idle-nodes", pc.MeanIdleNodes)
			if names := cfg.String("policies", ""); names != "" {
				pc.Policies = splitList(names)
			}
			r, err := experiments.RunPolicyComparisonCtx(ctx, pc, cfg.Progress())
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "scientific",
		Artifact:    "§VII future work",
		Description: "heterogeneous scientific FaaS workload with the Alg. 1 commercial fallback",
		Axes:        []string{"nodes", "horizon", "qps", "policy"},
		Options: []OptionDoc{
			{Name: "functions", Kind: KindInt, Default: "200", Help: "size of the heterogeneous function population", min: positive},
			{Name: "use-wrapper", Kind: KindBool, Default: "true", Help: "route calls through the Alg. 1 fallback"},
			{Name: "checkpoint-interval", Kind: KindDuration, Default: "0", Help: "checkpoint cadence; > 0 makes long functions interruptible and resumes timed-out progress on the cloud (0: disabled)", min: nonNegative},
		},
		loaded: true,
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			sc := experiments.DefaultScientificConfig(cfg.Seed())
			sc.Nodes = cfg.Nodes(sc.Nodes)
			sc.Horizon = cfg.Horizon(sc.Horizon)
			sc.QPS = cfg.QPS(sc.QPS)
			sc.Functions = cfg.Int("functions", sc.Functions)
			sc.UseWrapper = cfg.Bool("use-wrapper", sc.UseWrapper)
			sc.CheckpointInterval = cfg.Duration("checkpoint-interval", 0)
			sc.Policy = cfg.Policy(sc.PolicyName())
			r, err := experiments.RunScientificCtx(ctx, sc, cfg.Progress())
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})

	Register(Spec{
		Name:        "endogenous",
		Artifact:    "beyond the paper",
		Description: "full-scheduler run: pilots harvest the idleness emerging from a real prime-job stream",
		Axes:        []string{"nodes", "horizon", "policy"},
		Options: []OptionDoc{
			{Name: "utilization", Kind: KindFloat, Default: "0.94", Help: "target prime-load share of the cluster", min: positive},
			{Name: "max-walltime", Kind: KindDuration, Default: "4h", Help: "clamp on the Fig. 2 job walltimes", min: positive},
			{Name: "max-job-nodes", Kind: KindInt, Default: "32", Help: "clamp on the Fig. 2 job widths", min: positive},
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			ec := experiments.DefaultEndogenousConfig(cfg.Seed())
			ec.Nodes = cfg.Nodes(ec.Nodes)
			ec.Horizon = cfg.Horizon(ec.Horizon)
			ec.Utilization = cfg.Float("utilization", ec.Utilization)
			ec.MaxWalltime = cfg.Duration("max-walltime", ec.MaxWalltime)
			ec.MaxJobNodes = cfg.Int("max-job-nodes", ec.MaxJobNodes)
			ec.Policy = cfg.Policy(ec.PolicyName())
			r, err := experiments.RunEndogenousCtx(ctx, ec, cfg.Progress())
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	})
}

// federatedConfig overlays the set axes and options on the federated
// day's defaults; federated-day's check and Run both read it.
func federatedConfig(cfg Config) experiments.FederatedConfig {
	fc := experiments.DefaultFederatedConfig(cfg.Seed())
	fc.NodesPerSite = cfg.Nodes(fc.NodesPerSite)
	fc.Horizon = cfg.Horizon(fc.Horizon)
	fc.QPS = cfg.QPS(fc.QPS)
	fc.Policy = cfg.Policy(fc.Policy)
	fc.Sites = cfg.Int("sites", fc.Sites)
	fc.NumActions = cfg.Int("actions", fc.NumActions)
	fc.SleepExec = cfg.Duration("sleep-exec", fc.SleepExec)
	fc.CloudFallback = cfg.Bool("cloud-fallback", fc.CloudFallback)
	fc.Streaming = cfg.Bool("streaming", false)
	if names := cfg.String("routing", ""); names != "" {
		fc.Routing = splitList(names)
	}
	return fc
}

// dayScenario builds the Table II/III production-day Spec shared by
// fib-day and var-day.
func dayScenario(name, artifact, desc string, base func(int64) experiments.DayConfig, defPolicy string) Spec {
	return Spec{
		Name:        name,
		Artifact:    artifact,
		Description: desc,
		Axes:        []string{"nodes", "horizon", "policy", "qps"},
		Options: []OptionDoc{
			{Name: "actions", Kind: KindInt, Default: "100", Help: "number of sleep functions under load", min: positive},
			{Name: "sleep-exec", Kind: KindDuration, Default: "10ms", Help: "in-container execution time per call", min: nonNegative},
			{Name: "graceful-handoff", Kind: KindBool, Default: "true", Help: "enable the §III-C hand-off protocol"},
			{Name: "interrupt-running", Kind: KindBool, Default: "true", Help: "interrupt mid-execution activations on reclaim"},
			{Name: "checkpoint-interval", Kind: KindDuration, Default: "0", Help: "checkpoint cadence for executions (0: checkpointing disabled, byte-identical to the goldens)", min: nonNegative},
			{Name: "action-timeout", Kind: KindDuration, Default: "0", Help: "client-visible action timeout override (0: the controller default, 60s)", min: nonNegative},
			{Name: "streaming", Kind: KindBool, Default: "false", Help: "O(1)-memory streaming metrics (t-digest quantiles, windowed series)"},
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			day := base(cfg.Seed())
			day.Policy = cfg.Policy(defPolicy)
			day.Nodes = cfg.Nodes(day.Nodes)
			day.Horizon = cfg.Horizon(day.Horizon)
			day.QPS = cfg.QPS(day.QPS)
			day.NumActions = cfg.Int("actions", day.NumActions)
			day.SleepExec = cfg.Duration("sleep-exec", day.SleepExec)
			day.GracefulHandoff = cfg.Bool("graceful-handoff", day.GracefulHandoff)
			day.InterruptRunning = cfg.Bool("interrupt-running", day.InterruptRunning)
			day.CheckpointInterval = cfg.Duration("checkpoint-interval", 0)
			day.ActionTimeout = cfg.Duration("action-timeout", 0)
			day.Streaming = cfg.Bool("streaming", false)
			r, err := experiments.RunDayCtx(ctx, day, cfg.Progress())
			if err != nil {
				return nil, err
			}
			return NewResult(r, r.Metrics()), nil
		},
	}
}

// durationList parses a comma-separated list of durations in (0,
// maxDuration], returning def when the string is empty.
func durationList(s string, def []time.Duration) ([]time.Duration, error) {
	if s == "" {
		return def, nil
	}
	var out []time.Duration
	for _, part := range splitList(s) {
		d, err := time.ParseDuration(part)
		if err != nil {
			return nil, err
		}
		if d <= 0 || d > maxDuration {
			return nil, fmt.Errorf("duration %v not in (0, %v]", d, maxDuration)
		}
		out = append(out, d)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
