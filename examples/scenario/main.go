// Command scenario is the worked "scenario-first experiment API"
// example. It walks the four things the registry gives every
// experiment — enumeration, uniform configuration, cancellation, and
// sweeping — and then registers a custom scenario that immediately
// gains all four with zero extra plumbing.
//
// A scenario is one entry of the paper's evaluation catalog (or your
// own): a named Spec whose Run builds its experiment from the uniform
// Config (seed / nodes / horizon / policy / QPS plus documented
// key=value options) and returns the uniform Result contract
// (Metrics for sweeping, Unwrap for the typed value, which renders
// itself when it has a Render method). Registered scenarios appear
// automatically in hpcwhisk-sim -list, hpcwhisk-sweep -scenario, and
// hpcwhisk.Scenarios().
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	hpcwhisk "repro"
)

func main() {
	// 1. Enumerate: the whole paper catalog is data, not entry points.
	fmt.Println("registered scenarios:")
	for _, sp := range hpcwhisk.Scenarios() {
		fmt.Printf("  %-18s %s\n", sp.Name, sp.Artifact)
	}

	// 2. Run by name with uniform options. Axes you leave unset keep
	// the scenario's paper calibration; -set-style raw options ride
	// through WithOption.
	res, err := hpcwhisk.RunScenario(context.Background(), "fig3",
		hpcwhisk.WithSeed(7))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nfig3 ready coverage: %.0f%% (paper: 83%%)\n",
		100*res.Metrics()["ready-coverage"])

	// 3. Cancellation: a context cut mid-run returns promptly (checked
	// every simulated minute) with a CancelError locating the cut in
	// virtual time. Here a progress callback cancels a 24-hour day
	// after two simulated hours.
	ctx, cancel := context.WithCancel(context.Background())
	_, err = hpcwhisk.RunScenario(ctx, "fib-day",
		hpcwhisk.WithSeed(1),
		hpcwhisk.WithNodes(64),
		hpcwhisk.WithQPS(0),
		hpcwhisk.WithProgress(func(done, total time.Duration) {
			if done >= 2*time.Hour {
				cancel()
			}
		}))
	var cut *hpcwhisk.ScenarioCancelError
	if errors.As(err, &cut) {
		fmt.Printf("canceled as planned: %v\n", cut)
	}

	// 4. Register your own: a Spec with a Run closure. This one
	// measures how much idle surface a half-size cluster slice still
	// offers — instantly runnable from both CLIs by name.
	hpcwhisk.RegisterScenario(hpcwhisk.Scenario{
		Name:        "half-cluster-idle",
		Artifact:    "beyond the paper",
		Description: "idle surface of a half-size Prometheus slice",
		Options: []hpcwhisk.ScenarioOptionDoc{
			{Name: "scale", Kind: "float", Default: "0.5", Help: "cluster-size scale factor"},
		},
		Run: func(ctx context.Context, cfg hpcwhisk.ScenarioConfig) (hpcwhisk.ScenarioResult, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			scale := cfg.Float("scale", 0.5)
			nodes := int(scale * float64(cfg.Nodes(2239)))
			tr := hpcwhisk.GenerateTrace(nodes, cfg.Horizon(24*time.Hour), cfg.Seed())
			m := map[string]float64{
				"nodes":             float64(nodes),
				"idle-node-hours":   tr.TotalIdle().Hours(),
				"idle-periods":      float64(len(tr.Periods)),
				"mean-period-hours": tr.TotalIdle().Hours() / float64(len(tr.Periods)),
			}
			return hpcwhisk.NewScenarioResult(tr, m), nil
		},
	})

	// The custom scenario sweeps like any catalog entry: replicas get
	// decorrelated seeds, metrics aggregate into mean/CI/quantiles.
	sweeps, err := hpcwhisk.SweepScenarios(
		hpcwhisk.SweepConfig{Replicas: 4, BaseSeed: 1},
		[]hpcwhisk.ScenarioPoint{
			{Scenario: "half-cluster-idle"},
			{Name: "quarter", Scenario: "half-cluster-idle",
				Options: []hpcwhisk.ScenarioOption{hpcwhisk.WithOption("scale", "0.25")}},
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The §I calibration pins the *mean idle node count*, so the idle
	// surface stays put while the slice shrinks — scarcity, not volume,
	// is what harvesting on a smaller cluster changes.
	fmt.Println("\ncustom-scenario sweep (4 replicas each):")
	for _, r := range sweeps {
		s := r.Metrics["idle-node-hours"]
		fmt.Printf("  %-18s %4.0f nodes: idle surface %.0f ± %.0f node-hours/day over %.0f periods\n",
			r.Name, r.Metrics["nodes"].Mean, s.Mean, s.CI95, r.Metrics["idle-periods"].Mean)
	}
}
