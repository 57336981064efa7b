package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig2Jobs is the number of completed non-commercial jobs in the
// monitored week (§I: 74k).
const Fig2Jobs = 74000

// Fig2Result carries the three CDFs of Fig. 2 (minutes).
type Fig2Result struct {
	LimitCDF   []stats.CDFPoint
	RuntimeCDF []stats.CDFPoint
	SlackCDF   []stats.CDFPoint

	MedianLimit   time.Duration
	P5Limit       time.Duration
	MedianRuntime time.Duration
	MedianSlack   time.Duration
	Jobs          int
}

// RunFig2Ctx generates the calibrated job stream and reduces its CDFs,
// with a cancellation check before the job-stream generation. jobs
// sets the stream length (≤ 0 keeps Fig2Jobs).
func RunFig2Ctx(ctx context.Context, seed int64, jobs int) (Fig2Result, error) {
	if err := ctx.Err(); err != nil {
		return Fig2Result{}, err
	}
	if jobs <= 0 {
		jobs = Fig2Jobs
	}
	stream := workload.DefaultJobGen(jobs, Week, seed).Generate()
	limits, runtimes, slacks := workload.JobCDFs(stream)

	probes := []float64{1, 5, 10, 15, 30, 60, 120, 180, 360, 720, 1440, 2880, 4320}
	var r Fig2Result
	r.LimitCDF = limits.CDF(probes)
	r.RuntimeCDF = runtimes.CDF(probes)
	r.SlackCDF = slacks.CDF(probes)
	r.MedianLimit = time.Duration(limits.Median() * float64(time.Minute))
	r.P5Limit = time.Duration(limits.Quantile(0.05) * float64(time.Minute))
	r.MedianRuntime = time.Duration(runtimes.Median() * float64(time.Minute))
	r.MedianSlack = time.Duration(slacks.Median() * float64(time.Minute))
	r.Jobs = len(stream)
	return r, nil
}

// Render prints the figure in the paper's terms.
func (r Fig2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 2 — %d jobs; median limit %v (p5 %v), median runtime %v, median slack %v\n",
		r.Jobs, r.MedianLimit, r.P5Limit,
		r.MedianRuntime.Round(time.Minute), r.MedianSlack.Round(time.Minute))
	fmt.Fprintf(w, "  %-10s %-8s %-8s %-8s\n", "≤ minutes", "limit", "runtime", "slack")
	for i := range r.LimitCDF {
		fmt.Fprintf(w, "  %-10.0f %-8.3f %-8.3f %-8.3f\n",
			r.LimitCDF[i].X, r.LimitCDF[i].F, r.RuntimeCDF[i].F, r.SlackCDF[i].F)
	}
}
