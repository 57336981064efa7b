// Package loadgen reproduces the Gatling-based measurement client of
// §V-C: an open-loop constant-rate generator that calls a set of
// deployed functions round-robin, classifies every response, and
// aggregates per-minute series (Figs. 5b and 6b) plus summary rates.
package loadgen

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/whisk"
)

// Backend has core.Backend's method set (declared here to avoid an
// import cycle); whisk.Controller, core.Wrapper and core.Federation
// satisfy it.
type Backend interface {
	Invoke(action string, done func(*whisk.Invocation))
}

// Config parameterizes the generator. The paper used 10 QPS against
// 100 identically-sleeping functions for 24 hours (864,000 requests).
type Config struct {
	QPS       float64
	Actions   []string
	Duration  time.Duration
	BucketLen time.Duration // aggregation bucket (1 minute in Figs. 5b/6b)

	// Weights optionally skews action selection (e.g. the Zipf-like
	// popularity of production FaaS workloads); nil means round-robin.
	// Must match Actions in length when set.
	Weights []float64

	// Seed drives the weighted selection (unused for round-robin).
	Seed int64

	// Streaming switches the collectors from exact buffered series
	// (MinuteSeries + Sample, O(requests) memory) to O(1)-memory
	// streaming sketches (WindowedCounts + TDigest). Totals and shares
	// stay exact; latency quantiles come within stats.Epsilon rank
	// error; per-minute rows are limited to the retained tail. Off by
	// default so every golden-pinned artifact keeps exact collection.
	Streaming bool
}

// Labels used in the per-minute series.
const (
	LabelSuccess = "success"
	LabelFailed  = "failed"
	LabelLost    = "lost" // timeouts: requests that never came back
	Label503     = "503"
)

// Generator drives the load and accumulates results.
type Generator struct {
	sim     *des.Sim
	backend Backend
	cfg     Config

	// Series counts response classes per bucket; Latencies collects
	// successful-response latencies in seconds. Both are buffered-exact
	// by default and streaming sketches under Config.Streaming.
	Series    stats.SeriesCollector
	Latencies stats.Collector

	// Counters.
	Issued    int
	Completed int

	ticker *des.Ticker
	picker *dist.Discrete
	rng    *rand.Rand

	// doneFn is the completion callback handed to every Invoke: one
	// method value for the whole run, not one closure per request
	// (864,000 on a paper day). The per-request timestamps it needs
	// (issue and completion instants) live on the invocation itself.
	doneFn func(*whisk.Invocation)
}

// New builds a generator.
func New(sim *des.Sim, backend Backend, cfg Config) *Generator {
	if cfg.QPS <= 0 || len(cfg.Actions) == 0 {
		panic("loadgen: need a positive rate and at least one action")
	}
	if cfg.BucketLen <= 0 {
		cfg.BucketLen = time.Minute
	}
	g := &Generator{
		sim:       sim,
		backend:   backend,
		cfg:       cfg,
		Series:    stats.NewMinuteSeries(cfg.BucketLen),
		Latencies: &stats.Sample{},
	}
	if cfg.Streaming {
		g.Series = stats.NewWindowedCounts(cfg.BucketLen, stats.DefaultWindowKeep)
		g.Latencies = stats.NewTDigest(stats.DefaultCompression)
	}
	g.doneFn = g.onDone
	if cfg.Weights != nil {
		if len(cfg.Weights) != len(cfg.Actions) {
			panic("loadgen: weights must match actions")
		}
		g.picker = dist.NewDiscrete(indexValues(len(cfg.Actions)), cfg.Weights)
		g.rng = dist.NewRand(cfg.Seed)
	}
	return g
}

func indexValues(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// Start begins issuing requests at the configured rate, stopping after
// exactly round(QPS × Duration) requests (864,000 in the paper's runs).
func (g *Generator) Start() {
	interval := time.Duration(float64(time.Second) / g.cfg.QPS)
	target := int(g.cfg.QPS*g.cfg.Duration.Seconds() + 0.5)
	g.ticker = g.sim.EveryFrom(g.sim.Now(), interval, func() {
		if g.Issued >= target {
			g.ticker.Stop()
			return
		}
		g.issue()
	})
}

func (g *Generator) issue() {
	var action string
	if g.picker != nil {
		action = g.cfg.Actions[int(g.picker.Sample(g.rng))]
	} else {
		action = g.cfg.Actions[g.Issued%len(g.cfg.Actions)]
	}
	g.Issued++
	g.backend.Invoke(action, g.doneFn)
}

// onDone classifies one response. Completion fires synchronously with
// the invocation's egress event, so inv.Completed is the current
// instant and inv.Submitted the issue instant — the same values the
// pre-refactor per-request closure captured.
func (g *Generator) onDone(inv *whisk.Invocation) {
	g.Completed++
	at := inv.Completed
	switch inv.Status {
	case whisk.StatusSuccess:
		g.Series.Add(at, LabelSuccess)
		g.Latencies.AddDuration(inv.Completed - inv.Submitted)
	case whisk.StatusFailed:
		g.Series.Add(at, LabelFailed)
	case whisk.StatusTimeout:
		g.Series.Add(at, LabelLost)
	case whisk.Status503:
		g.Series.Add(at, Label503)
	}
}

// Report is the summary of one responsiveness run, in the shape the
// paper reports in §V-C.
type Report struct {
	Issued int

	// InvokedShare is the fraction of requests the controller accepted
	// (95.29% on the fib day; 78.28% on the var day); the rest 503'd.
	InvokedShare float64

	// Of the invoked requests: SuccessShare ended with success (95.19%
	// fib / 96.99% var), LostShare never finished, FailedShare errored.
	SuccessShare float64
	LostShare    float64
	FailedShare  float64

	// MedianLatency of successful calls (865 ms fib / 1,227 ms var).
	MedianLatency time.Duration

	Totals map[string]int
}

// Report reduces the counters. Call after the run has drained.
func (g *Generator) Report() Report {
	totals := g.Series.Totals()
	rep := Report{Issued: g.Issued, Totals: totals}
	invoked := totals[LabelSuccess] + totals[LabelFailed] + totals[LabelLost]
	total := invoked + totals[Label503]
	if total > 0 {
		rep.InvokedShare = float64(invoked) / float64(total)
	}
	if invoked > 0 {
		rep.SuccessShare = float64(totals[LabelSuccess]) / float64(invoked)
		rep.LostShare = float64(totals[LabelLost]) / float64(invoked)
		rep.FailedShare = float64(totals[LabelFailed]) / float64(invoked)
	}
	if g.Latencies.Len() > 0 {
		rep.MedianLatency = time.Duration(g.Latencies.Median() * float64(time.Second))
	}
	return rep
}

// String renders the report like the paper's prose.
func (r Report) String() string {
	return fmt.Sprintf(
		"issued=%d invoked=%.2f%% success=%.2f%% lost=%.2f%% failed=%.2f%% median=%v",
		r.Issued, 100*r.InvokedShare, 100*r.SuccessShare,
		100*r.LostShare, 100*r.FailedShare, r.MedianLatency)
}

// ActionNames builds the paper's "100 identical functions with
// different names" list.
func ActionNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%03d", prefix, i)
	}
	return out
}
