// Command hpcwhisk-sweep runs replicated parameter sweeps over the
// scenario registry: any registered scenario — every paper table and
// figure, or anything custom — fans out across decorrelated seeds and
// an option grid (QPS × cluster size × generic -set options), parallel
// across GOMAXPROCS workers and bit-for-bit deterministic regardless
// of worker count.
//
// Usage:
//
//	hpcwhisk-sweep -list
//	hpcwhisk-sweep -replicas 8 -seed 1
//	hpcwhisk-sweep -policy fib,var,adaptive,lease,hybrid -qps 5,10,20 -hours 6 -format csv
//	hpcwhisk-sweep -scenario endogenous,scientific -replicas 4 -format json
//	hpcwhisk-sweep -scenario endogenous -set utilization=0.9 -replicas 8
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// maxHours is the longest horizon, in hours, a time.Duration holds;
// a longer one would wrap around to a short run.
const maxHours = math.MaxInt64 / time.Hour

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind testable seams: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpcwhisk-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarios := fs.String("scenario", "", "comma-separated scenarios to grid over (see -list); empty sweeps the paper day per -policy")
	list := fs.Bool("list", false, "list the registered scenarios and exit")
	var sets scenario.SetFlag
	fs.Var(&sets, "set", "scenario-specific option as key=value, applied to every grid cell (repeatable)")
	policies := fs.String("policy", "fib", "comma-separated supply policies to grid over the paper days when -scenario is empty (registry names: "+strings.Join(policy.Names(), ",")+")")
	qpsList := fs.String("qps", "10", "comma-separated QPS levels to grid over (0 disables load)")
	nodesList := fs.String("nodes", strconv.Itoa(experiments.PrometheusNodes), "comma-separated cluster sizes to grid over")
	hours := fs.Int("hours", 24, "experiment length in hours")
	replicas := fs.Int("replicas", 8, "independent seeds per grid point")
	seed := fs.Int64("seed", 1, "base seed of the decorrelated replica-seed sequence")
	workers := fs.Int("workers", 0, "concurrent replicas (0 = GOMAXPROCS); never affects results")
	format := fs.String("format", "json", "output format: json or csv")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "sweepable scenarios (-scenario <names>; axes you set grid, unset axes keep paper defaults):")
		scenario.FprintCatalog(stdout)
		return 0
	}

	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if time.Duration(*hours) > maxHours {
		fmt.Fprintf(stderr, "-hours wants at most %d, got %d\n", maxHours, *hours)
		return 2
	}
	// The results are written after the whole sweep, so a bad format
	// must fail before it starts.
	if *format != "json" && *format != "csv" {
		fmt.Fprintf(stderr, "-format wants json or csv, got %q\n", *format)
		return 2
	}

	// The policy grid belongs to the paper-day sweep; with -scenario the
	// policy is a uniform axis, not a grid. Refuse the combination
	// rather than silently dropping a flag.
	if *scenarios != "" && explicit["policy"] {
		fmt.Fprintln(stderr, "-scenario and -policy cannot be combined; grid policies with separate -scenario cells or a policy-comparison sweep")
		return 2
	}
	cells, err := buildScenarioGrid(*scenarios, *policies, *qpsList, *nodesList, *hours, sets, explicit)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	cfg := sweep.Config{Replicas: *replicas, Workers: *workers, BaseSeed: *seed}
	start := time.Now()
	results, runErr := sweep.SweepScenarios(cfg, cells)
	if results == nil { // validation failure: nothing ran
		fmt.Fprintln(stderr, runErr)
		return 2
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if *format == "csv" {
		err = writeCSV(w, results)
	} else {
		err = writeJSON(w, results)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "swept %d points × %d replicas in %v\n", len(cells), *replicas, elapsed)
	if runErr != nil { // replicas failed: results are partial
		fmt.Fprintln(stderr, "some replicas failed:", runErr)
		return 1
	}
	return 0
}

// buildScenarioGrid expands rows × qps × nodes into cells, row-major.
// With -scenario the rows are the named scenarios, and grid axes the
// caller never set stay off the grid (and out of the cell names), so
// each scenario keeps its own paper defaults; setting an axis a
// scenario does not honor fails SweepScenarios' validation (no silent
// duplicate cells). Without -scenario the rows are the paper-day
// policies: every policy runs the fib day's trace calibration except
// "var", which keeps its own paper day, and the qps, nodes and hours
// axes are always set, naming cells "<policy>/qps=<q>/nodes=<n>".
// -set options apply to every cell.
func buildScenarioGrid(scenarios, policies, qpsList, nodesList string, hours int, sets scenario.SetFlag, explicit map[string]bool) ([]sweep.ScenarioPoint, error) {
	type row struct {
		label, scenario string
		opts            []scenario.Option
	}
	var rows []row
	if scenarios != "" {
		for _, name := range strings.Split(scenarios, ",") {
			name = strings.TrimSpace(name)
			rows = append(rows, row{label: name, scenario: name})
		}
	} else {
		for _, name := range strings.Split(policies, ",") {
			name = strings.TrimSpace(name)
			day := "fib-day"
			if name == "var" {
				day = "var-day"
			}
			rows = append(rows, row{label: name, scenario: day, opts: []scenario.Option{scenario.WithPolicy(name)}})
		}
	}
	set := func(flagName string) bool { return scenarios == "" || explicit[flagName] }

	type axis struct {
		label string
		opt   scenario.Option
	}
	expand := func(flagName, listStr string, parse func(string) (axis, error)) ([]axis, error) {
		if !set(flagName) {
			return []axis{{}}, nil // unset: one cell, scenario default
		}
		var out []axis
		for _, s := range strings.Split(listStr, ",") {
			a, err := parse(strings.TrimSpace(s))
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		return out, nil
	}

	qpsAxis, err := expand("qps", qpsList, func(s string) (axis, error) {
		q, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return axis{}, fmt.Errorf("bad qps %q: %v", s, err)
		}
		return axis{label: fmt.Sprintf("/qps=%g", q), opt: scenario.WithQPS(q)}, nil
	})
	if err != nil {
		return nil, err
	}
	nodesAxis, err := expand("nodes", nodesList, func(s string) (axis, error) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return axis{}, fmt.Errorf("bad nodes %q: %v", s, err)
		}
		return axis{label: fmt.Sprintf("/nodes=%d", n), opt: scenario.WithNodes(n)}, nil
	})
	if err != nil {
		return nil, err
	}

	var shared []scenario.Option
	if set("hours") {
		shared = append(shared, scenario.WithHorizon(time.Duration(hours)*time.Hour))
	}
	shared = append(shared, sets.Options()...)

	var cells []sweep.ScenarioPoint
	for _, r := range rows {
		for _, q := range qpsAxis {
			for _, n := range nodesAxis {
				opts := append(append([]scenario.Option(nil), shared...), r.opts...)
				if q.opt != nil {
					opts = append(opts, q.opt)
				}
				if n.opt != nil {
					opts = append(opts, n.opt)
				}
				cells = append(cells, sweep.ScenarioPoint{
					Name:     r.label + q.label + n.label,
					Scenario: r.scenario,
					Options:  opts,
				})
			}
		}
	}
	return cells, nil
}

func writeJSON(w io.Writer, results []sweep.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// writeCSV emits one row per (point, metric) with the full summary.
func writeCSV(w io.Writer, results []sweep.Result) error {
	cw := csv.NewWriter(w)
	header := []string{"point", "metric", "n", "mean", "std", "ci95", "min", "p25", "median", "p75", "max"}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, res := range results {
		metrics := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			metrics = append(metrics, name)
		}
		sort.Strings(metrics)
		for _, name := range metrics {
			s := res.Metrics[name]
			row := []string{
				res.Name, name, strconv.Itoa(s.N),
				f(s.Mean), f(s.Std), f(s.CI95),
				f(s.Min), f(s.P25), f(s.Median), f(s.P75), f(s.Max),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
