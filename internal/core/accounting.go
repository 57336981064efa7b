package core

import (
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/slurm"
	"repro/internal/stats"
)

// WorkerStates tracks the OpenWhisk-level perspective of §IV-A: the
// number of warming, healthy, and irresponsive (draining) workers as
// piecewise-constant series over virtual time. It feeds the "OW-level"
// rows of Tables II and III.
type WorkerStates struct {
	warming, healthy, irresp int

	// The series are buffered stats.TimeWeighted by default (exact,
	// one segment per transition) and stats.TimeWeightedStream under
	// streaming accounting (O(1) memory for week-scale horizons).
	Warming stats.TimeSeries
	Healthy stats.TimeSeries
	Irresp  stats.TimeSeries
}

// NewWorkerStatesStreaming starts all counts at zero; streaming selects
// O(1)-memory sketch-backed series instead of buffered ones. Every
// value Tables II/III read from the series (time means, zero-invoker
// totals and longest runs) is exact either way; only the time-weighted
// quantiles become ε-approximate under streaming.
func NewWorkerStatesStreaming(streaming bool) *WorkerStates {
	ws := &WorkerStates{}
	if streaming {
		ws.Warming = stats.NewTimeWeightedStream(0)
		ws.Healthy = stats.NewTimeWeightedStream(0)
		ws.Irresp = stats.NewTimeWeightedStream(0)
	} else {
		ws.Warming = &stats.TimeWeighted{}
		ws.Healthy = &stats.TimeWeighted{}
		ws.Irresp = &stats.TimeWeighted{}
	}
	ws.observe(0)
	return ws
}

func (ws *WorkerStates) observe(t time.Duration) {
	ws.Warming.Observe(t, float64(ws.warming))
	ws.Healthy.Observe(t, float64(ws.healthy))
	ws.Irresp.Observe(t, float64(ws.irresp))
}

func (ws *WorkerStates) counter(p pilotPhase) *int {
	switch p {
	case phaseWarming:
		return &ws.warming
	case phaseHealthy:
		return &ws.healthy
	case phaseDraining:
		return &ws.irresp
	default:
		return nil
	}
}

// Add enters a worker into a phase.
func (ws *WorkerStates) Add(t time.Duration, p pilotPhase) {
	if c := ws.counter(p); c != nil {
		*c++
		ws.observe(t)
	}
}

// Move transitions a worker between phases.
func (ws *WorkerStates) Move(t time.Duration, from, to pilotPhase) {
	if c := ws.counter(from); c != nil {
		*c--
	}
	if c := ws.counter(to); c != nil {
		*c++
	}
	ws.observe(t)
}

// Remove drops a worker from a phase.
func (ws *WorkerStates) Remove(t time.Duration, p pilotPhase) {
	if c := ws.counter(p); c != nil {
		*c--
		ws.observe(t)
	}
}

// Finish closes the series at the experiment end.
func (ws *WorkerStates) Finish(end time.Duration) {
	ws.Warming.Finish(end)
	ws.Healthy.Finish(end)
	ws.Irresp.Finish(end)
}

// SlurmLogEntry is one poll of the Slurm-level perspective: the counts
// of idle and HPC-Whisk (pilot) nodes at the response instant.
type SlurmLogEntry struct {
	At    des.Time
	Idle  int
	Pilot int
}

// SlurmLogger reproduces the measurement methodology of §IV-A: it polls
// the node states, waits for the (variable-latency) response, records
// it, and only then waits a fixed 10 seconds before the next request —
// yielding the paper's 10.3-10.7 s average spacing.
type SlurmLogger struct {
	sim     *des.Sim
	emu     *slurm.Emulator
	gap     time.Duration
	latency dist.Dist // query round trip in seconds, drawn from rng
	rng     *rand.Rand

	// Cached typed-arg callbacks: the poll loop runs 8,640 times per
	// simulated day and schedules without allocating a closure per hop.
	requestFn, recordFn func(any)

	Entries []SlurmLogEntry

	// Streaming accounting (SetStreaming): instead of appending to
	// Entries (8,640/day — 60,480 for a week), polls fold into online
	// aggregates so logger memory is O(1) in horizon. Stats and
	// AverageSpacing work in both modes; the per-entry Entries slice
	// stays empty when streaming.
	streaming          bool
	n                  int
	firstAt, lastAt    des.Time
	workers, avail     *stats.TDigest
	idleSum, pilotSum  float64
	zeroAvail, zeroWkr int
}

// NewSlurmLogger builds a logger with the paper's latency model.
func NewSlurmLogger(emu *slurm.Emulator, seed int64) *SlurmLogger {
	l := &SlurmLogger{
		sim:     emu.Sim(),
		emu:     emu,
		gap:     10 * time.Second,
		latency: dist.QueryLatencySeconds(),
		rng:     dist.NewRand(seed),
	}
	l.requestFn = func(any) { l.request() }
	l.recordFn = l.recordCb
	return l
}

// SetStreaming switches the logger to O(1)-memory online aggregation
// (worker/available-count digests plus running sums) instead of the
// per-poll Entries buffer. Call before Start; the polling cadence and
// RNG draws are identical either way, so enabling it never perturbs
// the simulation — only what the logger retains.
func (l *SlurmLogger) SetStreaming(on bool) {
	l.streaming = on
	if on && l.workers == nil {
		l.workers = stats.NewTDigest(stats.DefaultCompression)
		l.avail = stats.NewTDigest(stats.DefaultCompression)
	}
}

// Start issues the first request immediately.
func (l *SlurmLogger) Start() { l.request() }

func (l *SlurmLogger) request() {
	l.sim.AfterCall(dist.Seconds(l.latency, l.rng), l.recordFn, nil)
}

// recordCb logs the response and waits the fixed gap before polling
// again.
func (l *SlurmLogger) recordCb(any) {
	cl := l.emu.Cluster()
	e := SlurmLogEntry{
		At:    l.sim.Now(),
		Idle:  cl.Count(cluster.Idle),
		Pilot: cl.Count(cluster.Pilot),
	}
	if l.streaming {
		if l.n == 0 {
			l.firstAt = e.At
		}
		l.n++
		l.lastAt = e.At
		l.workers.Add(float64(e.Pilot))
		l.avail.Add(float64(e.Idle + e.Pilot))
		l.idleSum += float64(e.Idle)
		l.pilotSum += float64(e.Pilot)
		if e.Idle+e.Pilot == 0 {
			l.zeroAvail++
		}
		if e.Pilot == 0 {
			l.zeroWkr++
		}
	} else {
		l.Entries = append(l.Entries, e)
	}
	l.sim.AfterCall(l.gap, l.requestFn, nil)
}

// AverageSpacing returns the mean distance between measurements
// (§IV-A reports 10.32 s for the initial week and 10.68-10.72 s during
// the experiments).
func (l *SlurmLogger) AverageSpacing() time.Duration {
	if l.streaming {
		if l.n < 2 {
			return 0
		}
		return (l.lastAt - l.firstAt) / time.Duration(l.n-1)
	}
	if len(l.Entries) < 2 {
		return 0
	}
	span := l.Entries[len(l.Entries)-1].At - l.Entries[0].At
	return span / time.Duration(len(l.Entries)-1)
}

// Measurements returns the number of polls recorded so far in either
// mode.
func (l *SlurmLogger) Measurements() int {
	if l.streaming {
		return l.n
	}
	return len(l.Entries)
}

// Footprint returns the retained metric bytes of the logger: the
// entries buffer when buffered, the two digests when streaming.
func (l *SlurmLogger) Footprint() int {
	if l.streaming {
		return l.workers.Footprint() + l.avail.Footprint()
	}
	return cap(l.Entries) * 32
}

// SlurmLevelStats aggregates the logger's entries into the Slurm-level
// row of Tables II/III.
type SlurmLevelStats struct {
	Measurements int
	AvgSpacing   time.Duration

	// Worker-count distribution over logged states.
	WorkerP25, WorkerP50, WorkerP75 float64
	WorkerAvg                       float64

	// ShareUsed is pilot-node time over the joined idle+pilot baseline
	// (the paper's "coverage": 90% fib, 68% var); ShareNotUsed is the
	// complement.
	ShareUsed    float64
	ShareNotUsed float64

	// AvailableAvg / AvailableMedian summarize idle+pilot counts (the
	// "HPC-idle surface": 11.85 avg / 11 median on the fib day).
	AvailableAvg    float64
	AvailableMedian float64

	// ZeroAvailableStates counts logged states with no idle or pilot
	// node; ZeroWorkerStates counts states with no pilot node.
	ZeroAvailableStates int
	ZeroWorkerStates    int
}

// Stats reduces the log. Under streaming accounting the same stats
// come from the online aggregates: every field is exact except the
// worker/available quantiles, which are within stats.Epsilon rank
// error.
func (l *SlurmLogger) Stats() SlurmLevelStats {
	var s SlurmLevelStats
	s.Measurements = l.Measurements()
	s.AvgSpacing = l.AverageSpacing()
	if s.Measurements == 0 {
		return s
	}
	if l.streaming {
		s.WorkerP25 = l.workers.Quantile(0.25)
		s.WorkerP50 = l.workers.Quantile(0.50)
		s.WorkerP75 = l.workers.Quantile(0.75)
		s.WorkerAvg = l.workers.Mean()
		if l.idleSum+l.pilotSum > 0 {
			s.ShareUsed = l.pilotSum / (l.idleSum + l.pilotSum)
			s.ShareNotUsed = 1 - s.ShareUsed
		}
		s.AvailableAvg = l.avail.Mean()
		s.AvailableMedian = l.avail.Median()
		s.ZeroAvailableStates = l.zeroAvail
		s.ZeroWorkerStates = l.zeroWkr
		return s
	}
	var workers, avail stats.Sample
	var idleSum, pilotSum float64
	for _, e := range l.Entries {
		workers.Add(float64(e.Pilot))
		avail.Add(float64(e.Idle + e.Pilot))
		idleSum += float64(e.Idle)
		pilotSum += float64(e.Pilot)
		if e.Idle+e.Pilot == 0 {
			s.ZeroAvailableStates++
		}
		if e.Pilot == 0 {
			s.ZeroWorkerStates++
		}
	}
	s.WorkerP25 = workers.Quantile(0.25)
	s.WorkerP50 = workers.Quantile(0.50)
	s.WorkerP75 = workers.Quantile(0.75)
	s.WorkerAvg = workers.Mean()
	if idleSum+pilotSum > 0 {
		s.ShareUsed = pilotSum / (idleSum + pilotSum)
		s.ShareNotUsed = 1 - s.ShareUsed
	}
	s.AvailableAvg = avail.Mean()
	s.AvailableMedian = avail.Median()
	return s
}

// OWLevelStats is the OpenWhisk-level row group of Tables II/III.
type OWLevelStats struct {
	WarmupAvg float64

	HealthyP25, HealthyP50, HealthyP75 float64
	HealthyAvg                         float64

	IrrespAvg float64

	// NoInvokerTotal and NoInvokerLongest describe periods with zero
	// reachable invokers (24 min total / 7 min longest on the fib day;
	// 218 min / 85 min on the var day).
	NoInvokerTotal   time.Duration
	NoInvokerLongest time.Duration

	// ReadySpanAvg and ReadySpanMedian summarize how long invokers
	// stayed ready (§V-B: fib avg >23 min, median ≈11 min).
	ReadySpanAvg    time.Duration
	ReadySpanMedian time.Duration
}

// OWStats reduces the manager's worker-state series at end.
func (m *PilotManager) OWStats(end time.Duration) OWLevelStats {
	m.States.Finish(end)
	var o OWLevelStats
	o.WarmupAvg = m.States.Warming.TimeMean()
	o.HealthyP25 = m.States.Healthy.Quantile(0.25)
	o.HealthyP50 = m.States.Healthy.Quantile(0.50)
	o.HealthyP75 = m.States.Healthy.Quantile(0.75)
	o.HealthyAvg = m.States.Healthy.TimeMean()
	o.IrrespAvg = m.States.Irresp.TimeMean()
	o.NoInvokerTotal = m.States.Healthy.ZeroTotal()
	o.NoInvokerLongest = m.States.Healthy.ZeroLongest()
	if m.ReadySpans.Len() > 0 {
		o.ReadySpanAvg = time.Duration(m.ReadySpans.Mean() * float64(time.Second))
		o.ReadySpanMedian = time.Duration(m.ReadySpans.Median() * float64(time.Second))
	}
	return o
}
