package workload

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dist"
)

// IdleProcessConfig parameterizes the regime-modulated idle-period point
// process that stands in for the Prometheus node-status logs of §I.
//
// The cluster alternates between two demand regimes. During *contended*
// stretches, idle periods are short (no long gap survives the demand),
// and whole-cluster saturation windows occur (zero idle nodes anywhere —
// the paper's 10.11% share); occasional drain bursts spike the number of
// idle nodes to ~100-150 for a few minutes (Fig. 1c). During *calm*
// stretches, more nodes sit idle and the period-length distribution
// carries the fat Pareto tail, which is how the aggregate trace shows 5%
// of periods above 23 minutes despite the frequent truncation during
// contention. Each period lands on a distinct node.
type IdleProcessConfig struct {
	Nodes   int
	Horizon time.Duration

	// MeanIdleNodes is the calibration target for the time-average
	// number of idle nodes (9.23 in the paper). Regime concurrencies are
	// derived from it.
	MeanIdleNodes float64

	// SaturatedFraction is the target share of time with zero idle
	// nodes (0.1011 in the paper). Saturation windows are placed inside
	// contended stretches.
	SaturatedFraction float64

	// ContendedMean and CalmMean are the mean lengths of the two demand
	// regimes (exponentially distributed).
	ContendedMean time.Duration
	CalmMean      time.Duration

	CalmPeriod        dist.Dist // idle-period lengths while calm (s)
	SaturationSeconds dist.Dist // saturation-window lengths (s)

	Seed int64
}

// contendedPeriodSeconds yields idle-period lengths while contended.
var contendedPeriodSeconds = dist.ContendedIdlePeriodSeconds()

// Drain bursts: burstsPerDay on average, each multiplying the
// contended arrival rate by a burstFactor draw for a burstSeconds draw.
const burstsPerDay = 3

var (
	burstFactor  dist.Dist = dist.Uniform{Lo: 10, Hi: 30}
	burstSeconds dist.Dist = dist.Uniform{Lo: 3 * 60, Hi: 15 * 60}
)

// The declared-error model: how the scheduler-visible window length
// (DeclaredEnd - Start) deviates from the actual idle length. With
// probability pUnder the window is underestimated by an underFactor
// draw (< 1), with probability pOver overestimated by an overFactor
// draw (> 1).
const pUnder, pOver = 0.15, 0.15

var (
	underFactor dist.Dist = dist.Uniform{Lo: 0.40, Hi: 0.95}
	overFactor  dist.Dist = dist.Uniform{Lo: 1.05, Hi: 1.80}
)

// contendedDepression is the ratio of contended-regime concurrency to
// the overall target mean; calm-regime concurrency is derived from it
// so that the time average lands on MeanIdleNodes for any regime split.
const contendedDepression = 0.54

// DefaultIdleProcess returns the configuration calibrated to §I of the
// paper for a cluster of the given size and horizon.
func DefaultIdleProcess(nodes int, horizon time.Duration, seed int64) IdleProcessConfig {
	return IdleProcessConfig{
		Nodes:             nodes,
		Horizon:           horizon,
		MeanIdleNodes:     9.23,
		SaturatedFraction: 0.1011,
		ContendedMean:     3 * time.Hour,
		CalmMean:          150 * time.Minute,
		CalmPeriod:        dist.CalmIdlePeriodSeconds(),
		SaturationSeconds: dist.SaturationPeriodSeconds(),
		Seed:              seed,
	}
}

// Generate builds the trace.
func (cfg IdleProcessConfig) Generate() *Trace {
	tr, _ := cfg.generate()
	return tr
}

// generate builds the trace and returns how many periods it reserved
// for it up front.
func (cfg IdleProcessConfig) generate() (*Trace, int) {
	if cfg.Nodes <= 0 || cfg.Horizon <= 0 {
		panic("workload: idle process needs nodes and a horizon")
	}
	root := dist.NewRand(cfg.Seed)
	rArrival := dist.Split(root)
	rPeriod := dist.Split(root)
	rRegime := dist.Split(root)
	rSat := dist.Split(root)
	rBurst := dist.Split(root)
	rNode := dist.Split(root)
	rDecl := dist.Split(root)

	horizonSec := cfg.Horizon.Seconds()
	calms := cfg.calmWindows(rRegime, horizonSec)
	saturations := cfg.saturationWindows(rSat, calms, horizonSec)
	bursts := burstWindows(rBurst, horizonSec)

	// Per-regime arrival rates from the target concurrency:
	// lambda = concurrency / E[period length]. Contended stretches sit
	// below the overall mean; the calm concurrency is derived so the
	// overall time average hits MeanIdleNodes given the realized regime
	// split and the saturation share.
	meanContD := sampleMean(contendedPeriodSeconds, rPeriod, 20000)
	meanCalmD := sampleMean(cfg.CalmPeriod, rPeriod, 20000)
	var calmTotal float64
	for _, w := range calms {
		calmTotal += w.end - w.start
	}
	shareCalm := calmTotal / horizonSec
	shareCont := 1 - shareCalm
	var satTotal float64
	for _, w := range saturations {
		satTotal += w.end - w.start
	}
	satInCont := 0.0
	if shareCont > 0 {
		satInCont = (satTotal / horizonSec) / shareCont
	}
	concCont := cfg.MeanIdleNodes * contendedDepression
	concCalm := cfg.MeanIdleNodes
	if shareCalm > 0.01 {
		concCalm = (cfg.MeanIdleNodes - shareCont*concCont*(1-satInCont)) / shareCalm
	} else if shareCont > 0 && satInCont < 1 {
		concCont = cfg.MeanIdleNodes / (shareCont * (1 - satInCont))
	}
	if concCalm < 0 {
		concCalm = 0
	}
	lambdaCont := concCont / meanContD
	lambdaCalm := concCalm / meanCalmD
	if lambdaCalm <= 0 {
		lambdaCalm = 1e-9
	}
	if lambdaCont <= 0 {
		lambdaCont = 1e-9
	}

	segs := rateSegments(calms, saturations, bursts, horizonSec)
	reserve := periodReserve(segs, lambdaCont, lambdaCalm)
	tr := &Trace{Nodes: cfg.Nodes, Horizon: cfg.Horizon, Periods: make([]IdlePeriod, 0, reserve)}
	free := newFreeSet(cfg.Nodes)
	active := &endHeap{}

	release := func(until float64) {
		for len(*active) > 0 && (*active)[0].end <= until {
			free.add(active.pop().node)
		}
	}

	for _, seg := range segs {
		if seg.saturated {
			// A demand surge claims every idle node: truncate active
			// periods at the segment start.
			for len(*active) > 0 {
				e := active.pop()
				p := &tr.Periods[e.idx]
				cut := time.Duration(seg.start * float64(time.Second))
				if cut < p.End {
					// DeclaredEnd deliberately stays put: the reclaim is
					// a surprise to the scheduler, so pilots planned into
					// the window get preempted.
					p.End = cut
				}
				free.add(e.node)
			}
			continue
		}
		rate := seg.rate(lambdaCont, lambdaCalm)
		periodDist := contendedPeriodSeconds
		if seg.calm {
			periodDist = cfg.CalmPeriod
		}
		t := seg.start
		for {
			t += rArrival.ExpFloat64() / rate
			if t >= seg.end {
				break
			}
			release(t)
			node, ok := free.pick(rNode)
			if !ok {
				continue // every node already idle; cannot start another period
			}
			d := periodDist.Sample(rPeriod)
			end := t + d
			if end > horizonSec {
				end = horizonSec
			}
			if end <= t {
				free.add(node)
				continue
			}
			declared := t + declaredLength(rDecl, end-t)
			if declared > horizonSec {
				declared = horizonSec
			}
			tr.Periods = append(tr.Periods, IdlePeriod{
				Node:        node,
				Start:       time.Duration(t * float64(time.Second)),
				End:         time.Duration(end * float64(time.Second)),
				DeclaredEnd: time.Duration(declared * float64(time.Second)),
			})
			active.push(activePeriod{end: end, node: node, idx: len(tr.Periods) - 1})
		}
		release(seg.end)
	}
	for i := range tr.Periods {
		if tr.Periods[i].DeclaredEnd < tr.Periods[i].Start {
			tr.Periods[i].DeclaredEnd = tr.Periods[i].Start
		}
	}
	tr.Sort()
	return tr, reserve
}

// maxReserve caps the periods Generate reserves up front, so a
// calibration whose expected arrival count is extreme grows its trace
// by append instead of reserving memory it may never fill.
const maxReserve = 1 << 20

// periodReserve is how many periods Generate reserves: the expected
// arrival count over the non-saturated segments, plus four standard
// deviations of its Poisson spread and 16, at most maxReserve.
// Arrivals that find every node idle start no period, so the trace
// rarely reaches it.
func periodReserve(segs []rateSegment, lambdaCont, lambdaCalm float64) int {
	expect := 0.0
	for _, seg := range segs {
		if !seg.saturated {
			expect += seg.rate(lambdaCont, lambdaCalm) * (seg.end - seg.start)
		}
	}
	n := expect + 4*math.Sqrt(expect) + 16
	if !(n < maxReserve) { // also NaN
		return maxReserve
	}
	return int(n)
}

// declaredLength draws the scheduler-visible length of an idle period
// that actually lasts actual seconds.
func declaredLength(r *rand.Rand, actual float64) float64 {
	u := r.Float64()
	switch {
	case u < pUnder:
		return actual * underFactor.Sample(r)
	case u < pUnder+pOver:
		return actual * overFactor.Sample(r)
	default:
		return actual
	}
}

type window struct{ start, end float64 }

func inWindows(ws []window, t float64) bool {
	for _, w := range ws {
		if t >= w.start && t < w.end {
			return true
		}
	}
	return false
}

// calmWindows alternates contended/calm stretches over the horizon,
// starting contended.
func (cfg IdleProcessConfig) calmWindows(r *rand.Rand, horizon float64) []window {
	if cfg.CalmMean <= 0 {
		return nil
	}
	contMean := cfg.ContendedMean.Seconds()
	calmMean := cfg.CalmMean.Seconds()
	var out []window
	t := r.ExpFloat64() * contMean
	for t < horizon {
		end := t + r.ExpFloat64()*calmMean
		if end > horizon {
			end = horizon
		}
		out = append(out, window{start: t, end: end})
		t = end + r.ExpFloat64()*contMean
	}
	return out
}

// saturationWindows places zero-idle windows inside contended stretches,
// dense enough that their overall share matches SaturatedFraction.
func (cfg IdleProcessConfig) saturationWindows(r *rand.Rand, calms []window, horizon float64) []window {
	if cfg.SaturatedFraction <= 0 {
		return nil
	}
	var calmTotal float64
	for _, w := range calms {
		calmTotal += w.end - w.start
	}
	contShare := (horizon - calmTotal) / horizon
	if contShare <= 0 {
		return nil
	}
	// The post-saturation ramp (arrivals rebuilding from zero) keeps the
	// idle count at zero beyond the windows themselves, so placing
	// windows for ~78% of the target share realizes the full share.
	fracInCont := 0.78 * cfg.SaturatedFraction / contShare
	if fracInCont >= 0.9 {
		fracInCont = 0.9
	}
	meanSat := sampleMean(cfg.SaturationSeconds, r, 5000)
	meanGap := meanSat * (1 - fracInCont) / fracInCont
	var out []window
	t := r.ExpFloat64() * meanGap
	for t < horizon {
		if inWindows(calms, t) {
			t += r.ExpFloat64() * meanGap
			continue
		}
		d := cfg.SaturationSeconds.Sample(r)
		end := t + d
		if end > horizon {
			end = horizon
		}
		out = append(out, window{start: t, end: end})
		t = end + r.ExpFloat64()*meanGap
	}
	return out
}

func burstWindows(r *rand.Rand, horizon float64) []burst {
	meanGap := 86400.0 / burstsPerDay
	var out []burst
	t := r.ExpFloat64() * meanGap
	for t < horizon {
		d := burstSeconds.Sample(r)
		f := burstFactor.Sample(r)
		end := t + d
		if end > horizon {
			end = horizon
		}
		out = append(out, burst{window: window{start: t, end: end}, factor: f})
		t = end + r.ExpFloat64()*meanGap
	}
	return out
}

type burst struct {
	window
	factor float64
}

type rateSegment struct {
	start, end  float64
	saturated   bool
	calm        bool
	burstFactor float64
}

// rate is the segment's arrival rate per second: the calm rate, or
// the contended one scaled by a drain burst (bursts only hit contended
// time).
func (seg rateSegment) rate(lambdaCont, lambdaCalm float64) float64 {
	if seg.calm {
		return lambdaCalm
	}
	return lambdaCont * seg.burstFactor
}

// rateSegments flattens regime, saturation, and burst windows into
// disjoint piecewise-constant segments covering [0, horizon).
func rateSegments(calms, sats []window, bursts []burst, horizon float64) []rateSegment {
	cuts := map[float64]bool{0: true, horizon: true}
	addWindow := func(w window) {
		cuts[w.start] = true
		cuts[w.end] = true
	}
	for _, w := range calms {
		addWindow(w)
	}
	for _, w := range sats {
		addWindow(w)
	}
	for _, b := range bursts {
		addWindow(b.window)
	}
	points := make([]float64, 0, len(cuts))
	for c := range cuts {
		if c >= 0 && c <= horizon {
			points = append(points, c)
		}
	}
	sort.Float64s(points)
	var segs []rateSegment
	for i := 0; i+1 < len(points); i++ {
		s, e := points[i], points[i+1]
		if e <= s {
			continue
		}
		mid := (s + e) / 2
		seg := rateSegment{start: s, end: e, burstFactor: 1}
		seg.saturated = inWindows(sats, mid)
		if !seg.saturated {
			seg.calm = inWindows(calms, mid)
			if !seg.calm {
				for _, b := range bursts {
					if mid >= b.start && mid < b.end {
						seg.burstFactor = b.factor
						break
					}
				}
			}
		}
		segs = append(segs, seg)
	}
	return segs
}

func sampleMean(d dist.Dist, r *rand.Rand, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

// freeSet tracks nodes not currently idle, with O(1) pick/add/remove.
type freeSet struct {
	ids []int
	pos []int
}

func newFreeSet(n int) *freeSet {
	f := &freeSet{ids: make([]int, n), pos: make([]int, n)}
	for i := 0; i < n; i++ {
		f.ids[i] = i
		f.pos[i] = i
	}
	return f
}

func (f *freeSet) add(id int) {
	if f.pos[id] >= 0 {
		return
	}
	f.pos[id] = len(f.ids)
	f.ids = append(f.ids, id)
}

// pick removes and returns a uniformly random free node.
func (f *freeSet) pick(r *rand.Rand) (int, bool) {
	if len(f.ids) == 0 {
		return 0, false
	}
	i := r.Intn(len(f.ids))
	id := f.ids[i]
	last := len(f.ids) - 1
	moved := f.ids[last]
	f.ids[i] = moved
	f.pos[moved] = i
	f.ids = f.ids[:last]
	f.pos[id] = -1
	return id, true
}

type activePeriod struct {
	end  float64
	node int
	idx  int
}

// endHeap is a min-heap of the active periods by end. Ends tie (every
// period clamped at the horizon ends there), and the order in which tied
// periods pop is the order their nodes return to the free set, so it
// sets every later node pick. push and pop must therefore sift exactly
// as container/heap's Push and Pop do, with a strict <, or every
// generated trace changes.
type endHeap []activePeriod

// push adds a, sifting it up.
func (h *endHeap) push(a activePeriod) {
	*h = append(*h, a)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !(s[j].end < s[i].end) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the minimum: it swaps the last entry to the
// top and sifts it down over the rest.
func (h *endHeap) pop() activePeriod {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && s[j+1].end < s[j].end {
			j++
		}
		if !(s[j].end < s[i].end) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}
