package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/coverage"
	"repro/internal/workload"
)

// TableIResult is the full Table I: one coverage row per length set.
type TableIResult struct {
	Rows []coverage.Result
	Best coverage.Result
}

// RunTableICtx evaluates the six job-length sets against a week trace
// using the clairvoyant packing simulator of §IV-B, with cooperative
// cancellation checked between the per-set packing simulations (each
// is one full-trace clairvoyant pass, the natural epoch of this
// experiment).
func RunTableICtx(ctx context.Context, tr *workload.Trace) (TableIResult, error) {
	var rows []coverage.Result
	for _, set := range coverage.TableISets() {
		if err := ctx.Err(); err != nil {
			return TableIResult{Rows: rows}, err
		}
		rows = append(rows, coverage.Simulate(tr, set, coverage.DefaultConfig()))
	}
	return TableIResult{Rows: rows, Best: coverage.Best(rows)}, nil
}

// Render prints the table in the paper's column layout.
func (t TableIResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Table I — simulated coverage of idleness periods (20 s warm-up/job)")
	fmt.Fprintf(w, "  %-4s %8s %9s %8s %9s %5s %5s %5s %6s %9s\n",
		"Set", "#jobs", "warmup", "ready", "not-used", "25%", "50%", "75%", "avg", "non-avail")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "  %-4s %8d %8.2f%% %7.2f%% %8.2f%% %5.0f %5.0f %5.0f %6.2f %8.2f%%\n",
			r.Set.Name, r.Jobs,
			100*r.ShareWarmup, 100*r.ShareReady, 100*r.ShareNotUsed,
			r.ReadyP25, r.ReadyP50, r.ReadyP75, r.ReadyAvg,
			100*r.NonAvailability)
	}
	fmt.Fprintf(w, "  best ready share: set %s (%.2f%%)\n", t.Best.Set.Name, 100*t.Best.ShareReady)
}
