// Command idle-analysis regenerates the production-workload analysis of
// §I: the idle-node and idle-period distributions of Fig. 1 and the
// HPC-job CDFs of Fig. 2, over a calibrated synthetic week.
//
// Usage:
//
//	idle-analysis -seed 1
//	idle-analysis -days 7 -trace-out week.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// maxDays is the longest horizon, in days, a time.Duration holds.
const maxDays = math.MaxInt64 / (24 * time.Hour)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind testable seams: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("idle-analysis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed")
	nodes := fs.Int("nodes", experiments.PrometheusNodes, "cluster size")
	days := fs.Int("days", 7, "trace length in days")
	traceOut := fs.String("trace-out", "", "optional path to dump the trace as CSV")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// The idle-process generator allocates per node and needs a horizon
	// a time.Duration can hold, so sizes outside these ranges are usage
	// errors, not a panic, an exhausted heap or a horizon that wrapped.
	if *nodes < 1 || *nodes > workload.MaxNodes {
		fmt.Fprintf(stderr, "-nodes wants 1 to %d, got %d\n", workload.MaxNodes, *nodes)
		return 2
	}
	if *days < 1 || time.Duration(*days) > maxDays {
		fmt.Fprintf(stderr, "-days wants 1 to %d, got %d\n", maxDays, *days)
		return 2
	}

	horizon := time.Duration(*days) * 24 * time.Hour
	tr := workload.DefaultIdleProcess(*nodes, horizon, *seed).Generate()

	ctx := context.Background() // never canceled
	fig1, _ := experiments.RunFig1Ctx(ctx, tr)
	fig1.Render(stdout)
	fmt.Fprintln(stdout)
	fig2, _ := experiments.RunFig2Ctx(ctx, *seed, experiments.Fig2Jobs)
	fig2.Render(stdout)

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "trace-out:", err)
			return 1
		}
		defer f.Close()
		if err := tr.WriteCSV(f); err != nil {
			fmt.Fprintln(stderr, "trace-out:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\ntrace written to %s (%d periods)\n", *traceOut, len(tr.Periods))
	}
	return 0
}
