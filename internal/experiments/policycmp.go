package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/policy"
)

// PolicyComparisonConfig parameterizes the supply-policy comparison:
// every named policy runs the same calibrated day (identical trace and
// load seeds), so the rows differ only in how the pilot queue is
// stocked. This is the scenario matrix the paper never had — its §III-D
// evaluates exactly fib and var on separate production days.
type PolicyComparisonConfig struct {
	// Policies are registry names; nil means every registered policy.
	Policies []string

	Nodes   int
	Horizon time.Duration
	Seed    int64
	QPS     float64

	// Trace calibration shared by all rows.
	MeanIdleNodes float64
}

// comparisonSaturatedFraction is the zero-idle share of the trace all
// rows share.
const comparisonSaturatedFraction = 0.02

// DefaultPolicyComparisonConfig returns a tractable afternoon-sized
// scenario over every registered policy.
func DefaultPolicyComparisonConfig(seed int64) PolicyComparisonConfig {
	return PolicyComparisonConfig{
		Policies:      policy.Names(),
		Nodes:         256,
		Horizon:       4 * time.Hour,
		Seed:          seed,
		QPS:           10,
		MeanIdleNodes: 10,
	}
}

// PolicyRow is one policy's outcome on the shared day.
type PolicyRow struct {
	Policy string

	// Utilization of the idle surface and of the harvested workers.
	Coverage   float64 // Slurm-level used share of the idle+pilot time
	HealthyAvg float64 // time-averaged healthy worker count

	// Request-path outcomes.
	Share503  float64 // share of requests rejected with no invoker
	LostShare float64 // share of invoked requests that never finished

	// Hand-off and churn accounting.
	Handoffs      int
	PilotsStarted int
	Submitted     int
	Preempted     int
}

// PolicyComparisonResult bundles the per-policy rows.
type PolicyComparisonResult struct {
	Config PolicyComparisonConfig
	Rows   []PolicyRow
}

// RunPolicyComparisonCtx executes the shared day once per policy, with
// cooperative cancellation and whole-comparison progress.
func RunPolicyComparisonCtx(ctx context.Context, cfg PolicyComparisonConfig, progress ProgressFunc) (PolicyComparisonResult, error) {
	names := cfg.Policies
	if len(names) == 0 {
		names = policy.Names()
	}
	res := PolicyComparisonResult{Config: cfg}
	perDay := cfg.Horizon + dayDrain
	total := time.Duration(len(names)) * perDay
	for i, name := range names {
		day := FibDay(cfg.Seed) // shared calibration; the policy replaces the supply model
		day.Policy = name
		day.Nodes = cfg.Nodes
		day.Horizon = cfg.Horizon
		day.QPS = cfg.QPS
		day.MeanIdleNodes = cfg.MeanIdleNodes
		day.SaturatedFraction = comparisonSaturatedFraction
		r, err := RunDayCtx(ctx, day, offsetProgress(progress, time.Duration(i)*perDay, total))
		if err != nil {
			return res, err
		}
		share503, lost := 0.0, 0.0
		if cfg.QPS > 0 { // with no load there is nothing to reject
			share503, lost = 1-r.Load.InvokedShare, r.Load.LostShare
		}
		res.Rows = append(res.Rows, PolicyRow{
			Policy:        name,
			Coverage:      r.Coverage(),
			HealthyAvg:    r.OW.HealthyAvg,
			Share503:      share503,
			LostShare:     lost,
			Handoffs:      r.Handoffs,
			PilotsStarted: r.PilotsStarted,
			Submitted:     r.Submitted,
			Preempted:     r.Preempted,
		})
	}
	return res, nil
}

// Metrics flattens the comparison for the sweep engine: one metric per
// (policy, quantity) pair, named "<policy>/<quantity>".
func (r PolicyComparisonResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[row.Policy+"/coverage"] = row.Coverage
		m[row.Policy+"/healthy-avg"] = row.HealthyAvg
		m[row.Policy+"/503-share"] = row.Share503
		m[row.Policy+"/lost-share"] = row.LostShare
		m[row.Policy+"/handoffs"] = float64(row.Handoffs)
		m[row.Policy+"/pilots-started"] = float64(row.PilotsStarted)
		m[row.Policy+"/submitted"] = float64(row.Submitted)
		m[row.Policy+"/preempted"] = float64(row.Preempted)
	}
	return m
}

// Render prints the comparison table.
func (r PolicyComparisonResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Policy comparison — %d nodes, %v, %.0f QPS (seed %d)\n",
		r.Config.Nodes, r.Config.Horizon, r.Config.QPS, r.Config.Seed)
	fmt.Fprintf(w, "  %-14s %9s %11s %9s %9s %9s %8s %9s %9s\n",
		"policy", "coverage", "healthy-avg", "503", "lost", "handoffs", "pilots", "submitted", "preempted")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-14s %8.2f%% %11.2f %8.2f%% %8.2f%% %9d %8d %9d %9d\n",
			row.Policy, 100*row.Coverage, row.HealthyAvg,
			100*row.Share503, 100*row.LostShare,
			row.Handoffs, row.PilotsStarted, row.Submitted, row.Preempted)
	}
}
