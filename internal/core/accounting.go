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

	// The series come from stats.NewTimeSeries: buffered and exact by
	// default, O(1)-memory streams under streaming accounting.
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
	ws := &WorkerStates{
		Warming: stats.NewTimeSeries(streaming),
		Healthy: stats.NewTimeSeries(streaming),
		Irresp:  stats.NewTimeSeries(streaming),
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

	// Entries buffers every poll; Stats folds them into exact samples
	// when called.
	Entries []SlurmLogEntry

	// live replaces Entries under streaming accounting: each poll folds
	// into running sums and digests as it lands, so the logger's memory
	// stays O(1) in horizon (8,640 polls a day, 60,480 a week).
	live *slurmFold
}

// newSlurmLogger builds a logger with the paper's latency model;
// streaming selects the live fold over the Entries buffer. The polling
// cadence and RNG draws are the same either way, so the choice never
// perturbs the simulation, only what the logger retains.
func newSlurmLogger(emu *slurm.Emulator, seed int64, streaming bool) *SlurmLogger {
	l := &SlurmLogger{
		sim:     emu.Sim(),
		emu:     emu,
		gap:     10 * time.Second,
		latency: dist.QueryLatencySeconds(),
		rng:     dist.NewRand(seed),
	}
	if streaming {
		l.live = newSlurmFold(true)
	}
	l.requestFn = func(any) { l.request() }
	l.recordFn = l.recordCb
	return l
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
	if l.live != nil {
		l.live.add(e)
	} else {
		l.Entries = append(l.Entries, e)
	}
	l.sim.AfterCall(l.gap, l.requestFn, nil)
}

// Footprint returns the retained metric bytes of the logger: the
// entries buffer when buffered, the two digests when streaming.
func (l *SlurmLogger) Footprint() int {
	if l.live != nil {
		return l.live.workers.Footprint() + l.live.avail.Footprint()
	}
	return cap(l.Entries) * 32
}

// SlurmLevelStats aggregates the logger's entries into the Slurm-level
// row of Tables II/III.
type SlurmLevelStats struct {
	// Measurements counts the polls; AvgSpacing is the mean distance
	// between them (§IV-A reports 10.32 s for the initial week and
	// 10.68-10.72 s during the experiments).
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

// Stats reduces the log. Under streaming accounting every field is
// exact except the worker/available quantiles, which are within
// stats.Epsilon rank error.
func (l *SlurmLogger) Stats() SlurmLevelStats {
	f := l.live
	if f == nil {
		f = newSlurmFold(false)
		for _, e := range l.Entries {
			f.add(e)
		}
	}
	return f.stats()
}

// slurmFold is the Slurm-level row's reduction over polls, one add per
// poll.
type slurmFold struct {
	n                  int
	firstAt, lastAt    des.Time
	idleSum, pilotSum  float64
	zeroAvail, zeroWkr int
	workers, avail     stats.Collector
}

func newSlurmFold(streaming bool) *slurmFold {
	return &slurmFold{workers: stats.NewCollector(streaming), avail: stats.NewCollector(streaming)}
}

func (f *slurmFold) add(e SlurmLogEntry) {
	if f.n == 0 {
		f.firstAt = e.At
	}
	f.n++
	f.lastAt = e.At
	f.workers.Add(float64(e.Pilot))
	f.avail.Add(float64(e.Idle + e.Pilot))
	f.idleSum += float64(e.Idle)
	f.pilotSum += float64(e.Pilot)
	if e.Idle+e.Pilot == 0 {
		f.zeroAvail++
	}
	if e.Pilot == 0 {
		f.zeroWkr++
	}
}

func (f *slurmFold) stats() SlurmLevelStats {
	s := SlurmLevelStats{Measurements: f.n}
	if f.n == 0 {
		return s
	}
	if f.n > 1 {
		s.AvgSpacing = (f.lastAt - f.firstAt) / time.Duration(f.n-1)
	}
	s.WorkerP25 = f.workers.Quantile(0.25)
	s.WorkerP50 = f.workers.Quantile(0.50)
	s.WorkerP75 = f.workers.Quantile(0.75)
	s.WorkerAvg = f.workers.Mean()
	if f.idleSum+f.pilotSum > 0 {
		s.ShareUsed = f.pilotSum / (f.idleSum + f.pilotSum)
		s.ShareNotUsed = 1 - s.ShareUsed
	}
	s.AvailableAvg = f.avail.Mean()
	s.AvailableMedian = f.avail.Median()
	s.ZeroAvailableStates = f.zeroAvail
	s.ZeroWorkerStates = f.zeroWkr
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
