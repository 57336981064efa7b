// Command hpcwhisk-sim runs one experiment scenario from the registry
// on the simulated cluster: any table or figure of the paper (and any
// custom-registered scenario) selected by name, configured through the
// uniform axes (-seed/-nodes/-hours/-qps/-policy) plus generic
// -set key=value scenario options.
//
// Usage:
//
//	hpcwhisk-sim -list
//	hpcwhisk-sim -scenario fib-day -seed 1
//	hpcwhisk-sim -policy adaptive -hours 6
//	hpcwhisk-sim -scenario endogenous -set utilization=0.9
//	hpcwhisk-sim -scenario table1 -nodes 512 -timeout 30s
//
// A run is cancellable: ^C (or -timeout) stops the simulation at the
// next epoch boundary and reports where it was cut.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/policy"
	"repro/internal/scenario"
)

// maxHours is the longest horizon, in hours, a time.Duration holds;
// a longer one would wrap around to a short run.
const maxHours = math.MaxInt64 / time.Hour

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind testable seams: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpcwhisk-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioName := fs.String("scenario", "", "scenario to run (see -list); empty runs the paper day of -policy (var-day for var, fib-day otherwise)")
	list := fs.Bool("list", false, "list the registered scenarios and exit")
	var sets scenario.SetFlag
	fs.Var(&sets, "set", "scenario-specific option as key=value (repeatable; see -list)")
	policyName := fs.String("policy", "", "supply policy (registry names: "+strings.Join(policy.Names(), ",")+")")
	seed := fs.Int64("seed", 1, "random seed (runs are deterministic per seed)")
	nodes := fs.Int("nodes", experiments.PrometheusNodes, "cluster size")
	hours := fs.Int("hours", 24, "experiment length in hours")
	qps := fs.Float64("qps", 10, "responsiveness load (0 disables)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit; 0 runs to completion (^C also cancels)")
	minutes := fs.Bool("minutes", false, "print the per-minute Fig 5b/6b series (day scenarios)")
	series := fs.Bool("series", false, "print the per-minute worker-count panels (Fig 5a/6a, day scenarios)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "registered scenarios (run with -scenario <name>):")
		scenario.FprintCatalog(stdout)
		return 0
	}

	// Resolve the scenario: explicit -scenario, or the paper day the
	// selected policy implies (var keeps its own day).
	name := *scenarioName
	if name == "" {
		name = "fib-day"
		if *policyName == "var" {
			name = "var-day"
		}
	}

	// Only explicitly set axes reach the scenario, so every scenario
	// keeps its own paper defaults under plain `-scenario <name>`.
	opts := []scenario.Option{scenario.WithSeed(*seed)}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["nodes"] {
		opts = append(opts, scenario.WithNodes(*nodes))
	}
	if explicit["hours"] {
		if time.Duration(*hours) > maxHours {
			fmt.Fprintf(stderr, "-hours wants at most %d, got %d\n", maxHours, *hours)
			return 2
		}
		opts = append(opts, scenario.WithHorizon(time.Duration(*hours)*time.Hour))
	}
	if explicit["qps"] {
		opts = append(opts, scenario.WithQPS(*qps))
	}
	if explicit["policy"] {
		opts = append(opts, scenario.WithPolicy(*policyName))
	}
	opts = append(opts, sets.Options()...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Profiling taps for the README's workflow: a full paper day is a
	// realistic request-path profile in a couple of wall-clock seconds.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	start := time.Now()
	res, err := scenario.Run(ctx, name, opts...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		var canceled *scenario.CancelError
		if errors.As(err, &canceled) {
			return 1
		}
		return 2
	}

	scenario.Fprint(stdout, res)
	fmt.Fprintf(stdout, "(simulated scenario %q in %v)\n", name, time.Since(start).Round(time.Millisecond))

	if day, ok := res.Unwrap().(experiments.DayResult); ok {
		if *series {
			fmt.Fprintln(stdout)
			day.RenderSeries(stdout)
		}
		if *minutes && day.Series != nil {
			fmt.Fprintln(stdout, "\nper-minute series (Fig 5b/6b):")
			fmt.Fprintf(stdout, "%-8s %8s %8s %8s %8s\n", "minute", "success", "failed", "lost", "503")
			for i, row := range day.Series.Rows() {
				fmt.Fprintf(stdout, "%-8d %8d %8d %8d %8d\n", i,
					row.Counts[loadgen.LabelSuccess], row.Counts[loadgen.LabelFailed],
					row.Counts[loadgen.LabelLost], row.Counts[loadgen.Label503])
			}
		}
	}
	return 0
}
