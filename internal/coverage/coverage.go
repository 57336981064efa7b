// Package coverage implements the a-posteriori, clairvoyant simulation
// of §IV-A/§IV-B: given an idle-availability trace, it greedily packs
// every idleness period with pilot jobs from a job-length set (longest
// first), charges the first WarmupCharge of each job as warm-up, and
// reports the Table I metrics — an upper bound on what the live system
// can achieve, used to size the fib job lengths and to calibrate the
// Simulation rows of Tables II and III.
package coverage

import (
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Config parameterizes the clairvoyant packing.
type Config struct {
	// WarmupCharge is the initial slice of each job counted as warm-up
	// (20 s in §IV-B).
	WarmupCharge time.Duration

	// MaxJob caps job lengths (the 120-minute backfill window).
	MaxJob time.Duration
}

// DefaultConfig matches §IV-B.
func DefaultConfig() Config {
	return Config{WarmupCharge: 20 * time.Second, MaxJob: 120 * time.Minute}
}

// Set is a named job-length set from Table I.
type Set struct {
	Name    string
	Lengths []time.Duration
}

// TableISets returns the six candidate sets evaluated in Table I.
func TableISets() []Set {
	evens := func(max int) []time.Duration {
		var out []time.Duration
		for m := 2; m <= max; m += 2 {
			out = append(out, time.Duration(m)*time.Minute)
		}
		return out
	}
	mins := func(ms ...int) []time.Duration {
		out := make([]time.Duration, len(ms))
		for i, m := range ms {
			out[i] = time.Duration(m) * time.Minute
		}
		return out
	}
	return []Set{
		{Name: "A1", Lengths: mins(2, 4, 6, 8, 14, 22, 34, 56, 90)},
		{Name: "A2", Lengths: mins(2, 4, 8, 12, 20, 34, 54, 88)},
		{Name: "A3", Lengths: mins(2, 4, 6, 10, 16, 26, 42, 68, 110)},
		{Name: "B", Lengths: mins(2, 4, 8, 16, 32, 64)},
		{Name: "C1", Lengths: evens(20)},
		{Name: "C2", Lengths: evens(120)},
	}
}

// Result is one row of Table I.
type Result struct {
	Set  Set
	Jobs int

	// Shares of the total idle surface by state.
	ShareWarmup  float64
	ShareReady   float64
	ShareNotUsed float64

	// Distribution of the number of simultaneously ready workers over
	// time.
	ReadyP25, ReadyP50, ReadyP75 float64
	ReadyAvg                     float64

	// NonAvailability is the share of the horizon with zero ready
	// workers.
	NonAvailability float64

	// Ready is the underlying ready-worker count series (for the
	// Simulation panel of Figs. 5a/6a).
	Ready *stats.TimeWeighted
}

// Coverage returns warm-up plus ready share (the headline "92%"/"84%"
// upper bounds quoted for the fib and var experiments).
func (r Result) Coverage() float64 { return r.ShareWarmup + r.ShareReady }

// Simulate packs the trace with the set's lengths and reduces the
// Table I metrics.
func Simulate(tr *workload.Trace, set Set, cfg Config) Result {
	if len(set.Lengths) == 0 {
		panic("coverage: empty job-length set")
	}
	lengths := append([]time.Duration(nil), set.Lengths...)
	sort.Slice(lengths, func(i, j int) bool { return lengths[i] > lengths[j] }) // longest first
	minLen := lengths[len(lengths)-1]

	res := Result{Set: set}
	var warmup, ready time.Duration

	type span struct{ start, end time.Duration }
	var readySpans []span

	for _, p := range tr.Periods {
		remaining := p.Len()
		at := p.Start
		for remaining >= minLen {
			var job time.Duration
			for _, l := range lengths {
				if l <= remaining && l <= cfg.MaxJob {
					job = l
					break
				}
			}
			if job == 0 {
				break
			}
			res.Jobs++
			w := cfg.WarmupCharge
			if w > job {
				w = job
			}
			warmup += w
			ready += job - w
			readySpans = append(readySpans, span{start: at + w, end: at + job})
			at += job
			remaining -= job
		}
	}

	total := tr.TotalIdle()
	if total > 0 {
		res.ShareWarmup = warmup.Seconds() / total.Seconds()
		res.ShareReady = ready.Seconds() / total.Seconds()
		res.ShareNotUsed = 1 - res.ShareWarmup - res.ShareReady
	}

	// Sweep the ready spans into a worker-count series over the horizon.
	type ev struct {
		at    time.Duration
		delta int
	}
	evs := make([]ev, 0, 2*len(readySpans))
	for _, s := range readySpans {
		evs = append(evs, ev{s.start, +1}, ev{s.end, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	var tw stats.TimeWeighted
	tw.Observe(0, 0)
	n := 0
	for _, e := range evs {
		n += e.delta
		tw.Observe(e.at, float64(n))
	}
	tw.Finish(tr.Horizon)

	res.ReadyP25 = tw.Quantile(0.25)
	res.ReadyP50 = tw.Quantile(0.50)
	res.ReadyP75 = tw.Quantile(0.75)
	res.ReadyAvg = tw.TimeMean()
	res.NonAvailability = tw.FractionEqual(0)
	res.Ready = &tw
	return res
}

// Best returns the result with the highest ready share (the criterion
// the paper used to pick A1 for fib).
func Best(results []Result) Result {
	best := results[0]
	for _, r := range results[1:] {
		if r.ShareReady > best.ShareReady {
			best = r
		}
	}
	return best
}
