// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness returns a structured result and can
// render itself in the shape the paper reports (CDF series, table rows,
// per-minute aggregates), so `go test -bench` and the CLIs regenerate
// the full evaluation.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// PrometheusNodes is the size of the analyzed partition (§I).
const PrometheusNodes = 2239

// Week is the span of the paper's initial analysis (Feb 21-27, 2022).
const Week = 7 * 24 * time.Hour

// Fig1Result carries the three panels of Fig. 1.
type Fig1Result struct {
	// Panel (a): CDF of the number of idle nodes.
	IdleNodesCDF []stats.CDFPoint
	MeanIdle     float64
	MedianIdle   float64
	P25Idle      float64
	P99Idle      float64

	// Panel (b): CDF of idle-period lengths (minutes).
	PeriodCDF    []stats.CDFPoint
	MedianPeriod time.Duration
	P75Period    time.Duration
	MeanPeriod   time.Duration
	TailOver23m  float64

	// Panel (c): saturation and burst summary of the time series.
	ZeroIdleShare    float64
	LongestZeroIdle  time.Duration
	PeakIdleNodes    float64
	TotalIdleSurface time.Duration
	Periods          int
}

// RunFig1Ctx analyzes a week trace the way §I analyzed the production
// logs. The analysis is a single in-memory pass, so ctx is consulted
// once up front (callers generate the trace — the heavy part — under
// their own ctx checks).
func RunFig1Ctx(ctx context.Context, tr *workload.Trace) (Fig1Result, error) {
	if err := ctx.Err(); err != nil {
		return Fig1Result{}, err
	}
	tw := tr.IdleCount()
	lengths := tr.PeriodLengths()
	share, longest := tr.SaturationShare()

	var r Fig1Result
	probes := []float64{0, 1, 2, 3, 5, 8, 13, 20, 30, 50, 67, 100, 150}
	for _, p := range probes {
		r.IdleNodesCDF = append(r.IdleNodesCDF, stats.CDFPoint{X: p, F: tw.FractionAtOrBelow(p)})
	}
	r.MeanIdle = tw.TimeMean()
	r.MedianIdle = tw.Quantile(0.5)
	r.P25Idle = tw.Quantile(0.25)
	r.P99Idle = tw.Quantile(0.99)

	minuteProbes := []float64{0.5, 1, 2, 3, 4, 6, 10, 15, 23, 40, 60, 120}
	for _, m := range minuteProbes {
		r.PeriodCDF = append(r.PeriodCDF, stats.CDFPoint{X: m, F: lengths.CDFAt(m * 60)})
	}
	r.MedianPeriod = time.Duration(lengths.Median() * float64(time.Second))
	r.P75Period = time.Duration(lengths.Quantile(0.75) * float64(time.Second))
	r.MeanPeriod = time.Duration(lengths.Mean() * float64(time.Second))
	r.TailOver23m = 1 - lengths.CDFAt(23*60)

	r.ZeroIdleShare = share
	r.LongestZeroIdle = longest
	r.PeakIdleNodes = tw.Quantile(1.0)
	r.TotalIdleSurface = tr.TotalIdle()
	r.Periods = lengths.Len()
	return r, nil
}

// Render prints the figure in the paper's terms.
func (r Fig1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 1a — CDF of #idle nodes (mean %.2f, median %.0f, p25 %.0f, p99 %.0f)\n",
		r.MeanIdle, r.MedianIdle, r.P25Idle, r.P99Idle)
	for _, p := range r.IdleNodesCDF {
		fmt.Fprintf(w, "  ≤%4.0f nodes: %6.2f%%\n", p.X, 100*p.F)
	}
	fmt.Fprintf(w, "Fig 1b — CDF of idle-period lengths (median %v, p75 %v, mean %v, >23min %.1f%%)\n",
		r.MedianPeriod.Round(time.Second), r.P75Period.Round(time.Second),
		r.MeanPeriod.Round(time.Second), 100*r.TailOver23m)
	for _, p := range r.PeriodCDF {
		fmt.Fprintf(w, "  ≤%5.1f min: %6.2f%%\n", p.X, 100*p.F)
	}
	fmt.Fprintf(w, "Fig 1c — zero-idle %.2f%% of time (longest %v), peak %.0f idle nodes\n",
		100*r.ZeroIdleShare, r.LongestZeroIdle.Round(time.Minute), r.PeakIdleNodes)
	fmt.Fprintf(w, "idle surface: %.0f node-hours over %d periods\n",
		r.TotalIdleSurface.Hours(), r.Periods)
}
