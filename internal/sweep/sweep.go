// Package sweep is the parallel replication-and-parameter-sweep engine
// of the reproduction. The paper's evaluation (Tables II-III, Figs. 5-6)
// reports single-seed point estimates; sweep turns any experiment entry
// point into a multi-replica study with mean/CI/quantile aggregates, and
// fans a whole parameter grid out across worker goroutines.
//
// Determinism: every experiment in this repo runs on its own des.Sim and
// derives all randomness from an int64 seed, so replicas are embarrassingly
// parallel. Each replica's seed comes from a dist.Split fork of a root
// stream seeded with BaseSeed — replica i's seed is a pure function of
// (BaseSeed, i), independent of worker count and completion order — and
// results are aggregated positionally after a barrier. A sweep therefore
// produces bit-identical output whether it runs on 1 worker or GOMAXPROCS.
package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dist"
	"repro/internal/stats"
)

// Metrics is the flat named-scalar view of one replica's result: each
// experiment exposes its headline numbers under stable metric names
// (see the Metrics methods in internal/experiments).
type Metrics = map[string]float64

// Config controls the fan-out of a sweep.
type Config struct {
	// Replicas is the number of independent seeds per grid point.
	Replicas int

	// Workers bounds the concurrently running replicas; ≤0 means
	// GOMAXPROCS. The worker count never affects results, only wall time.
	Workers int

	// BaseSeed roots the decorrelated per-replica seed sequence.
	BaseSeed int64
}

// workers resolves the worker count for a sweep of jobs runs: Workers,
// or GOMAXPROCS when unset, and never more than there are jobs.
func (c Config) workers(jobs int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, jobs)
}

// Seeds returns the per-replica seed sequence: a root stream seeded with
// BaseSeed is forked once per replica via dist.Split, so the seeds are
// pairwise decorrelated and each is a pure function of (BaseSeed, index).
func (c Config) Seeds() []int64 {
	root := dist.NewRand(c.BaseSeed)
	out := make([]int64, c.Replicas)
	for i := range out {
		out[i] = dist.Split(root).Int63()
	}
	return out
}

// Point is one cell of a parameter grid: a label plus the experiment
// closure. Run must be a pure function of its seed (every entry point in
// internal/experiments is), because it will be called concurrently with
// other replicas. It returns the replica's scalar metrics plus its
// mergeable quantile sketches (keyed by stable names, e.g.
// "latency-s"; nil when it has none). The sweep merges the per-replica
// digests into Result.Digests in replica order — O(compression)
// retained bytes per key regardless of replica count, instead of
// concatenating raw samples across replicas.
type Point struct {
	Name string
	Run  func(seed int64) (Metrics, map[string]*stats.TDigest)
}

// Result aggregates the replicas of one grid point.
type Result struct {
	// Name echoes the point label.
	Name string `json:"name"`

	// Replicas is the replica count; Seeds the seed actually given to
	// each replica (in replica order).
	Replicas int     `json:"replicas"`
	Seeds    []int64 `json:"seeds"`

	// Metrics holds one aggregate per metric name.
	Metrics map[string]stats.Summary `json:"metrics"`

	// Values holds the raw per-replica series (replica order) behind
	// each aggregate, for CDFs or external re-analysis.
	Values map[string][]float64 `json:"values"`

	// Digests holds the cross-replica merged quantile sketches of the
	// point's replicas (nil when none returned any, and omitted from
	// serialization — read quantiles off and report those). Merging is
	// in replica order, so the sketch is identical across worker counts.
	Digests map[string]*stats.TDigest `json:"-"`
}

// Sweep runs every (point, replica) pair across the worker pool and
// aggregates per point. Results are in point order regardless of
// completion order.
func Sweep(cfg Config, points []Point) []Result {
	if cfg.Replicas <= 0 {
		panic(fmt.Sprintf("sweep: non-positive replica count %d", cfg.Replicas))
	}
	seeds := cfg.Seeds()

	// One job per (point, replica); results land positionally so worker
	// scheduling cannot reorder anything.
	type job struct{ point, rep int }
	jobs := make(chan job)
	raw := make([][]Metrics, len(points))
	sketches := make([][]map[string]*stats.TDigest, len(points))
	for i := range raw {
		raw[i] = make([]Metrics, cfg.Replicas)
		sketches[i] = make([]map[string]*stats.TDigest, cfg.Replicas)
	}

	var wg sync.WaitGroup
	for w := cfg.workers(len(points) * cfg.Replicas); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				raw[j.point][j.rep], sketches[j.point][j.rep] = points[j.point].Run(seeds[j.rep])
			}
		}()
	}
	for p := range points {
		for r := 0; r < cfg.Replicas; r++ {
			jobs <- job{point: p, rep: r}
		}
	}
	close(jobs)
	wg.Wait()

	out := make([]Result, len(points))
	for p := range points {
		out[p] = aggregate(points[p].Name, seeds, raw[p])
		out[p].Digests = mergeSketches(sketches[p])
	}
	return out
}

// mergeSketches folds the per-replica digest maps of one point, in
// replica order, into one merged sketch per key. Replicas missing a key
// (or whole replicas that failed) contribute nothing to it. The first
// contributing replica's digest is cloned, so replica results stay
// untouched.
func mergeSketches(reps []map[string]*stats.TDigest) map[string]*stats.TDigest {
	var out map[string]*stats.TDigest
	for _, rep := range reps {
		for key, d := range rep {
			if d == nil {
				continue
			}
			if out == nil {
				out = map[string]*stats.TDigest{}
			}
			if have := out[key]; have != nil {
				have.Merge(d)
			} else {
				out[key] = d.Clone()
			}
		}
	}
	return out
}

// aggregate folds the replica metric maps of one point into summaries.
// Metric names are taken from the first replica that produced any (a
// replica may be nil when its scenario failed — see SweepScenarios —
// and must not erase the successful replicas' data); a replica missing
// a name contributes nothing to that metric (its summary reports the
// smaller N).
func aggregate(name string, seeds []int64, reps []Metrics) Result {
	res := Result{
		Name:     name,
		Replicas: len(reps),
		Seeds:    append([]int64(nil), seeds...),
		Metrics:  map[string]stats.Summary{},
		Values:   map[string][]float64{},
	}
	var base Metrics
	for _, m := range reps {
		if m != nil {
			base = m
			break
		}
	}
	if base == nil {
		return res
	}
	for metric := range base {
		vals := make([]float64, 0, len(reps))
		for _, m := range reps {
			if v, ok := m[metric]; ok {
				vals = append(vals, v)
			}
		}
		res.Values[metric] = vals
		res.Metrics[metric] = stats.Summarize(vals)
	}
	return res
}
