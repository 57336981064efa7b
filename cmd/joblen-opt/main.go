// Command joblen-opt regenerates Table I: the clairvoyant coverage
// simulation that sizes the fib model's pilot job lengths (§IV-B).
//
// Usage:
//
//	joblen-opt -seed 1
//	joblen-opt -days 7 -trace week.csv
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
	fs := flag.NewFlagSet("joblen-opt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed")
	nodes := fs.Int("nodes", experiments.PrometheusNodes, "cluster size")
	days := fs.Int("days", 7, "trace length in days")
	tracePath := fs.String("trace", "", "optional CSV trace to analyze instead of generating")
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

	var tr *workload.Trace
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, "trace:", err)
			return 1
		}
		tr, err = workload.ReadCSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "trace:", err)
			return 1
		}
	} else {
		horizon := time.Duration(*days) * 24 * time.Hour
		tr = workload.DefaultIdleProcess(*nodes, horizon, *seed).Generate()
	}

	res, _ := experiments.RunTableICtx(context.Background(), tr) // never canceled
	res.Render(stdout)
	return 0
}
