// Package coverage implements the a-posteriori, clairvoyant simulation
// of §IV-A/§IV-B: given an idle-availability trace, it greedily packs
// every idleness period with pilot jobs from a job-length set (longest
// first), charges the first WarmupCharge of each job as warm-up, and
// reports the Table I metrics — an upper bound on what the live system
// can achieve, used to size the fib job lengths and to calibrate the
// Simulation rows of Tables II and III.
package coverage

import (
	"cmp"
	"slices"
	"time"

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

	// ReadyPerMinute is the ready-worker count averaged over each
	// minute of the horizon, a trailing partial minute over its length
	// (the Simulation panel of Figs. 5a/6a).
	ReadyPerMinute []float64
}

// Coverage returns warm-up plus ready share (the headline "92%"/"84%"
// upper bounds quoted for the fib and var experiments).
func (r Result) Coverage() float64 { return r.ShareWarmup + r.ShareReady }

// Simulate packs the trace with the set's lengths and reduces the
// Table I metrics. Each job's ready span goes into one event array,
// sized by a first counting pass; one sweep over the sorted events then
// reduces the ready-worker count, so memory is O(jobs + nodes + minutes
// of horizon).
func Simulate(tr *workload.Trace, set Set, cfg Config) Result {
	if len(set.Lengths) == 0 {
		panic("coverage: empty job-length set")
	}
	if tr.Horizon <= 0 {
		panic("coverage: trace without a horizon")
	}
	// Longest first, capped: each job takes the first length that fits
	// what is left of its period.
	lengths := make([]time.Duration, 0, len(set.Lengths))
	for _, l := range set.Lengths {
		if l <= cfg.MaxJob {
			lengths = append(lengths, l)
		}
	}
	slices.SortFunc(lengths, func(a, b time.Duration) int { return cmp.Compare(b, a) })

	jobs := 0
	for _, p := range tr.Periods {
		for room := p.Len(); ; {
			job := fit(lengths, room)
			if job == 0 {
				break
			}
			jobs++
			room -= job
		}
	}

	// An event is its instant shifted left one bit, with the low bit set
	// for a span's start: sorted, ends come before starts at one instant.
	evs := make([]uint64, 0, 2*jobs)
	var warmup, ready time.Duration
	for _, p := range tr.Periods {
		at := p.Start
		for room := p.Len(); ; {
			job := fit(lengths, room)
			if job == 0 {
				break
			}
			w := min(cfg.WarmupCharge, job)
			warmup += w
			ready += job - w
			start, end := at+w, at+job
			if start < 0 || end > tr.Horizon {
				panic("coverage: ready span outside the trace's horizon")
			}
			evs = append(evs, uint64(start)<<1|1, uint64(end)<<1)
			at += job
			room -= job
		}
	}
	slices.Sort(evs)

	res := Result{Set: set, Jobs: jobs}
	total := tr.TotalIdle()
	if total > 0 {
		res.ShareWarmup = warmup.Seconds() / total.Seconds()
		res.ShareReady = ready.Seconds() / total.Seconds()
		res.ShareNotUsed = 1 - res.ShareWarmup - res.ShareReady
	}

	// The count holds between consecutive event instants, at its value
	// after every event of the earlier one.
	s := readySweep{
		held:      make([]time.Duration, tr.Nodes+1),
		perMinute: make([]float64, (tr.Horizon+time.Minute-1)/time.Minute),
	}
	var last time.Duration
	n := 0
	for _, e := range evs {
		if at := time.Duration(e >> 1); at > last {
			s.hold(n, last, at)
			last = at
		}
		if e&1 == 1 {
			n++
		} else {
			n--
		}
	}
	if tr.Horizon > last {
		s.hold(n, last, tr.Horizon)
	}

	secs := tr.Horizon.Seconds()
	res.ReadyP25 = s.quantile(0.25, tr.Horizon)
	res.ReadyP50 = s.quantile(0.50, tr.Horizon)
	res.ReadyP75 = s.quantile(0.75, tr.Horizon)
	res.ReadyAvg = s.weighted / secs
	res.NonAvailability = s.held[0].Seconds() / secs
	for i := range s.perMinute {
		covered := min(time.Minute, tr.Horizon-time.Duration(i)*time.Minute)
		s.perMinute[i] /= covered.Seconds()
	}
	res.ReadyPerMinute = s.perMinute
	return res
}

// fit returns the first of lengths, sorted longest first, that fits in
// room, or 0 if none does.
func fit(lengths []time.Duration, room time.Duration) time.Duration {
	for _, l := range lengths {
		if l <= room {
			return l
		}
	}
	return 0
}

// readySweep reduces the piecewise-constant ready-worker count, fed one
// constant stretch at a time in time order from instant 0, exactly as
// stats.TimeWeighted's TimeMean, FractionEqual, Quantile and
// Buckets(time.Minute) reduce the same stretches.
type readySweep struct {
	held      []time.Duration // total time at each count
	weighted  float64         // Σ count × seconds, summed in time order
	perMinute []float64       // the same sum per minute of horizon
}

// hold records that the count was n from instant from to instant to.
func (s *readySweep) hold(n int, from, to time.Duration) {
	for n >= len(s.held) { // a trace whose periods overlap on a node
		s.held = append(s.held, 0)
	}
	d := to - from
	s.held[n] += d
	v := float64(n)
	s.weighted += v * d.Seconds()
	for cur := from; cur < to; {
		i := int(cur / time.Minute)
		end := min(to, time.Duration(i+1)*time.Minute)
		s.perMinute[i] += v * (end - cur).Seconds()
		cur = end
	}
}

// quantile is the time-weighted p-quantile of the count over a series
// of the given total length: the smallest count whose cumulative time
// reaches p of the total. Counts that held for no time are no values of
// the series.
func (s *readySweep) quantile(p float64, total time.Duration) float64 {
	target := time.Duration(p * float64(total))
	var cum time.Duration
	top := 0
	for n, d := range s.held {
		if d == 0 {
			continue
		}
		cum += d
		if cum >= target {
			return float64(n)
		}
		top = n
	}
	return float64(top)
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
