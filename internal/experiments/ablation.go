package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/loadgen"
	"repro/internal/stats"
)

// AblationVariant is one configuration of the hand-off machinery.
type AblationVariant struct {
	Name             string
	GracefulHandoff  bool
	InterruptRunning bool

	// CheckpointInterval > 0 layers the checkpoint/restore subsystem on
	// top of the variant (see DayConfig.CheckpointInterval).
	CheckpointInterval time.Duration
}

// AblationVariants returns the three design points DESIGN.md calls out:
// the full §III-C protocol, the protocol without mid-execution
// interruption, and the unmodified-OpenWhisk baseline where a departing
// worker is simply killed.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "handoff+interrupt", GracefulHandoff: true, InterruptRunning: true},
		{Name: "handoff-only", GracefulHandoff: true, InterruptRunning: false},
		{Name: "no-handoff", GracefulHandoff: false, InterruptRunning: false},
	}
}

// AblationRow is one variant's responsiveness outcome.
type AblationRow struct {
	Variant AblationVariant
	Load    loadgen.Report
	// LostShare duplicated for quick reading: the share of accepted
	// requests that never completed.
	LostShare float64
	Handoffs  int
	Preempted int

	// Work is the variant day's compute ledger; Work.Lost is the
	// lost-work axis the checkpoint arm is measured on.
	Work stats.WorkCounters
}

// AblationResult compares the hand-off design points.
type AblationResult struct {
	Rows    []AblationRow
	Horizon time.Duration

	// Policy is the supply policy the variants ran under ("" = fib).
	Policy string
}

// AblationConfig parameterizes the hand-off ablation; Policy names the
// pilot-supply policy every variant runs under (empty: the paper's
// fib), so the hand-off machinery can be isolated under any supply
// model.
type AblationConfig struct {
	Nodes   int
	Horizon time.Duration
	Seed    int64
	Policy  string

	// Streaming runs every variant day with O(1)-memory streaming
	// collectors (see DayConfig.Streaming). The ablation reads only
	// totals-derived shares, which are exact in both modes.
	Streaming bool

	// Checkpoint adds a fourth design point, handoff+interrupt+checkpoint:
	// the full §III-C protocol plus periodic checkpoints at
	// CheckpointInterval (DefaultAblationCheckpointInterval when zero).
	// Opt-in so the golden-pinned three-row ablation is untouched.
	Checkpoint         bool
	CheckpointInterval time.Duration
}

// DefaultAblationCheckpointInterval is the checkpoint cadence of the
// fourth ablation arm: well under the 500 ms SleepExec body, so a
// typical execution dumps several checkpoints before any interrupt.
const DefaultAblationCheckpointInterval = 100 * time.Millisecond

// RunAblationCtx runs a smaller cluster slice (for tractable bench
// times) through each variant with identical trace and load seeds,
// isolating the hand-off machinery's effect on lost requests. Progress
// spans all variant days, so a progress bar moves monotonically
// through the whole ablation.
func RunAblationCtx(ctx context.Context, a AblationConfig, progress ProgressFunc) (AblationResult, error) {
	res := AblationResult{Horizon: a.Horizon, Policy: a.Policy}
	variants := AblationVariants()
	if a.Checkpoint {
		iv := a.CheckpointInterval
		if iv <= 0 {
			iv = DefaultAblationCheckpointInterval
		}
		variants = append(variants, AblationVariant{
			Name:            "handoff+interrupt+checkpoint",
			GracefulHandoff: true, InterruptRunning: true,
			CheckpointInterval: iv,
		})
	}
	perDay := a.Horizon + dayDrain
	total := time.Duration(len(variants)) * perDay
	for i, v := range variants {
		cfg := FibDay(a.Seed)
		cfg.Policy = a.Policy
		cfg.Nodes = a.Nodes
		cfg.Horizon = a.Horizon
		cfg.MeanIdleNodes = 6
		cfg.SaturatedFraction = 0.02
		cfg.QPS = 5
		cfg.NumActions = 50
		cfg.SleepExec = 500 * time.Millisecond // long enough to sit in queues
		cfg.GracefulHandoff = v.GracefulHandoff
		cfg.InterruptRunning = v.InterruptRunning
		cfg.CheckpointInterval = v.CheckpointInterval
		cfg.Streaming = a.Streaming
		day, err := RunDayCtx(ctx, cfg, offsetProgress(progress, time.Duration(i)*perDay, total))
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:   v,
			Load:      day.Load,
			LostShare: day.Load.LostShare,
			Handoffs:  day.Handoffs,
			Preempted: day.Preempted,
			Work:      day.Work,
		})
	}
	return res, nil
}

// Render prints the comparison.
func (r AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation — hand-off design points over %v\n", r.Horizon)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-18s lost=%.2f%% success=%.2f%% handoffs=%d preempted=%d",
			row.Variant.Name, 100*row.LostShare, 100*row.Load.SuccessShare,
			row.Handoffs, row.Preempted)
		// The checkpoint arm alone carries the work ledger; the plain
		// variants keep the golden-pinned three-row layout untouched.
		if row.Variant.CheckpointInterval > 0 {
			fmt.Fprintf(w, " lost-work=%v wasted=%v dumps=%d resumes=%d",
				row.Work.Lost.Round(time.Millisecond), row.Work.Wasted.Round(time.Millisecond),
				row.Work.Checkpoints, row.Work.Resumed)
		}
		fmt.Fprintln(w)
	}
}
