package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/lambda"
	"repro/internal/sebs"
	"repro/internal/stats"
)

// Fig7Row compares one SeBS function across the two platforms.
type Fig7Row struct {
	Function string

	PrometheusMedian time.Duration
	LambdaMedian     time.Duration

	// Speedup is LambdaMedian / PrometheusMedian (the paper: ≈1.15 for
	// all three functions).
	Speedup float64
}

// Fig7Result is the §V-D comparison.
type Fig7Result struct {
	Rows        []Fig7Row
	Invocations int
	MemoryMB    int
}

// RunFig7Ctx executes the real bfs/mst/pagerank kernels `invocations`
// times each (warm), observing them under the Prometheus-node platform
// and the Lambda memory-scaled platform. The kernels run real
// wall-clock work, but a whole benchmark completes in tens of
// milliseconds, so ctx is checked once up front.
func RunFig7Ctx(ctx context.Context, graphN, graphDeg, invocations int, seed int64) (Fig7Result, error) {
	if err := ctx.Err(); err != nil {
		return Fig7Result{}, err
	}
	w := sebs.NewWorkload(graphN, graphDeg, seed)
	platforms := []sebs.Platform{sebs.Prometheus(), lambda.Platform(2048)}
	ms := sebs.RunBenchmark(w, platforms, invocations, nil)

	byKey := map[string]*stats.Sample{}
	for _, m := range ms {
		key := m.Function + "/" + m.Platform
		s := byKey[key]
		if s == nil {
			s = &stats.Sample{}
			byKey[key] = s
		}
		s.AddDuration(m.Internal)
	}

	res := Fig7Result{Invocations: invocations, MemoryMB: 2048}
	for _, fn := range sebs.Functions() {
		prom := byKey[fn+"/Prometheus"]
		lam := byKey[fn+"/Lambda-2048MB"]
		row := Fig7Row{
			Function:         fn,
			PrometheusMedian: time.Duration(prom.Median() * float64(time.Second)),
			LambdaMedian:     time.Duration(lam.Median() * float64(time.Second)),
		}
		if row.PrometheusMedian > 0 {
			row.Speedup = float64(row.LambdaMedian) / float64(row.PrometheusMedian)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the comparison like Fig. 7.
func (r Fig7Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 7 — SeBS warm internal times, Prometheus node vs AWS Lambda %d MB (%d invocations)\n",
		r.MemoryMB, r.Invocations)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-9s prometheus %-12v lambda %-12v lambda/prometheus %.3f\n",
			row.Function, row.PrometheusMedian.Round(time.Microsecond),
			row.LambdaMedian.Round(time.Microsecond), row.Speedup)
	}
}
