package sweep

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// DigestProvider is the structural contract a typed experiment result
// implements to expose mergeable quantile sketches: a streaming-mode
// run (experiments.DayResult, experiments.FederatedResult with
// Streaming set) returns its t-digests keyed by stable metric-like
// names. SweepScenarios probes every replica's Unwrap() against it, so
// any scenario gains cross-replica quantile merging just by returning
// a result with a Digests method — no sweep-side glue.
type DigestProvider interface {
	Digests() map[string]*stats.TDigest
}

// ScenarioPoint is one grid cell over the scenario registry: a
// scenario name plus the options fixing this cell's parameters. The
// sweep appends scenario.WithSeed per replica (after Options, so a
// seed in Options would be overridden — seeds belong to the engine).
type ScenarioPoint struct {
	// Name labels the cell in the results; empty defaults to Scenario.
	Name string

	// Scenario is the registry name (scenario.Names()).
	Scenario string

	// Options fix the cell's parameters (nodes, QPS, policy, raw
	// scenario options, ...).
	Options []scenario.Option
}

// SweepScenarios fans every registered-scenario grid cell across the
// worker pool with decorrelated per-replica seeds — any scenario in
// the registry becomes a multi-replica study by name, with no
// experiment-specific glue. The replica count and all cells (scenario
// name, option names, option values) are validated before anything
// runs, so a typo fails fast instead of after hours of replicas.
// Aggregation and determinism guarantees match Sweep exactly.
//
// Runtime failures are not swallowed: a replica whose scenario
// returns an error (a failing custom scenario, a scenario-specific
// constraint like the fib/var-only experiments) contributes no
// metrics, and SweepScenarios returns the joined per-replica errors
// alongside the (partial) results.
//
// Cells running sharded (a "shards" option > 1) occupy shards
// goroutines per replica; the effective worker count is lowered so
// that workers × max shards stays within cfg.MaxParallelism (default
// GOMAXPROCS). The cap changes wall time only, never results.
func SweepScenarios(cfg Config, cells []ScenarioPoint) ([]Result, error) {
	if cfg.Replicas <= 0 {
		return nil, fmt.Errorf("sweep: want a positive replica count, got %d", cfg.Replicas)
	}
	points := make([]Point, len(cells))
	var mu sync.Mutex
	var runErrs []error
	maxShards := 1
	for i, cell := range cells {
		cell := cell
		shards, err := scenario.Parallelism(cell.Scenario, cell.Options...)
		if err != nil {
			return nil, err
		}
		if shards > maxShards {
			maxShards = shards
		}
		name := cell.Name
		if name == "" {
			name = cell.Scenario
		}
		points[i] = Point{
			Name: name,
			Run: func(seed int64) (Metrics, map[string]*stats.TDigest) {
				opts := append(append([]scenario.Option(nil), cell.Options...), scenario.WithSeed(seed))
				res, err := scenario.Run(context.Background(), cell.Scenario, opts...)
				if err != nil {
					mu.Lock()
					runErrs = append(runErrs, fmt.Errorf("%s (seed %d): %w", name, seed, err))
					mu.Unlock()
					return nil, nil
				}
				var digs map[string]*stats.TDigest
				if dp, ok := res.Unwrap().(DigestProvider); ok {
					digs = dp.Digests()
				}
				return res.Metrics(), digs
			},
		}
	}
	results := Sweep(cfg.capWorkers(maxShards), points)
	// Replica completion order depends on worker scheduling; sort so
	// the joined error is as deterministic as the results.
	sort.Slice(runErrs, func(i, j int) bool { return runErrs[i].Error() < runErrs[j].Error() })
	return results, errors.Join(runErrs...)
}
