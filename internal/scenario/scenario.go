// Package scenario is the experiment layer of the reproduction redesigned
// around first-class, enumerable scenarios. The paper's evaluation is a
// catalog — Figs. 1-3/5-7, Tables I-III, the hand-off ablation, the §VII
// scientific workload — and each entry here is one registered Spec with a
// stable name, a uniform Config built from functional options, a uniform
// Result contract (flat metrics and the underlying typed value via
// Unwrap), and context-aware execution with cooperative cancellation
// checked at DES-epoch granularity.
//
// The package mirrors internal/policy's registry pattern one layer up:
// policies made the *supply decision* pluggable; scenarios make the
// *experiment* pluggable. A scenario registered here is automatically
// runnable from cmd/hpcwhisk-sim (-scenario), sweepable across seeds and
// grids by cmd/hpcwhisk-sweep and sweep.SweepScenarios, and listed by
// hpcwhisk.Scenarios() — no CLI or facade edits required.
package scenario

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ProgressFunc observes a scenario's advance through virtual time:
// done grows from 0 to total as the simulation runs. Callbacks fire at
// epoch boundaries (core.DefaultEpoch of virtual time), the same
// granularity at which cancellation is checked.
type ProgressFunc = func(done, total time.Duration)

// Result is the uniform contract every scenario returns. The two views
// serve the two consumers: Metrics feeds the sweep engine's replica
// aggregation, and Unwrap hands typed-result consumers (renderers
// included) the underlying experiment value (e.g.
// experiments.DayResult) for everything scenario-specific.
type Result interface {
	// Metrics returns the flat named-scalar view aggregated across
	// sweep replicas. Names are stable public API.
	Metrics() map[string]float64

	// Unwrap returns the underlying typed experiment result.
	Unwrap() any
}

// result is the canonical Result implementation built by NewResult.
type result struct {
	typed   any
	metrics map[string]float64
}

// NewResult bundles a typed experiment value into the Result contract.
func NewResult(typed any, metrics map[string]float64) Result {
	return result{typed: typed, metrics: metrics}
}

func (r result) Metrics() map[string]float64 { return r.metrics }
func (r result) Unwrap() any                 { return r.typed }

// Renderer is the optional paper-shaped rendering every experiment
// result in this repo implements.
type Renderer interface{ Render(w io.Writer) }

// Fprint renders a scenario result for humans: the typed value's
// paper-shaped Render when it has one (every catalog result does), the
// aligned MetricsTable otherwise — so custom scenarios print sensibly
// with zero support code.
func Fprint(w io.Writer, res Result) {
	if r, ok := res.Unwrap().(Renderer); ok {
		r.Render(w)
		return
	}
	rows := MetricsTable(res.Metrics())
	widths := map[int]int{}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(w, "  %-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
}

// FprintCatalog writes the registered catalog, one scenario per
// stanza: name, paper artifact, description, the uniform axes it
// honors, and its -set option docs. Both CLIs render -list through
// this, so the two listings cannot drift.
func FprintCatalog(w io.Writer) {
	for _, sp := range All() {
		fmt.Fprintf(w, "  %-18s %-22s %s\n", sp.Name, sp.Artifact, sp.Description)
		if sp.Axes != nil {
			axes := "seed only"
			if len(sp.Axes) > 0 {
				axes = "seed, " + strings.Join(sp.Axes, ", ")
			}
			fmt.Fprintf(w, "  %-18s   axes: %s\n", "", axes)
		}
		for _, d := range sp.Options {
			fmt.Fprintf(w, "  %-18s   -set %s=<%s> (default %s) %s\n", "", d.Name, d.Kind, d.Default, d.Help)
		}
	}
	fmt.Fprintln(w, "uniform axes: seed, nodes, horizon, qps, policy (unset axes keep each scenario's paper defaults; setting an axis a scenario does not honor is an error)")
}

// MetricsTable renders a metric map as a two-column table in sorted
// metric order — what Fprint prints for a result without a Renderer.
func MetricsTable(m map[string]float64) [][]string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := [][]string{{"metric", "value"}}
	for _, name := range names {
		rows = append(rows, []string{name, strconv.FormatFloat(m[name], 'g', 6, 64)})
	}
	return rows
}

// CancelError reports a run cut short by its context: the scenario
// returned early and any simulation state behind it is partial, so no
// Result is produced. Done/Total locate the cancellation in virtual
// time (zero when the scenario never reported progress). Unwrap yields
// the context's error, so errors.Is(err, context.Canceled) works.
type CancelError struct {
	Scenario    string
	Done, Total time.Duration
	Err         error
}

func (e *CancelError) Error() string {
	if e.Total > 0 {
		return fmt.Sprintf("scenario %q canceled at %v of %v (partial results discarded): %v",
			e.Scenario, e.Done, e.Total, e.Err)
	}
	return fmt.Sprintf("scenario %q canceled (partial results discarded): %v", e.Scenario, e.Err)
}

func (e *CancelError) Unwrap() error { return e.Err }
