package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/lambda"
	"repro/internal/loadgen"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/whisk"
)

// secondsDur converts a latency sample value (seconds) to a Duration.
func secondsDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// FederatedConfig parameterizes the cluster-of-clusters experiment: N
// independent Slurm+whisk sites with heterogeneous idle surfaces on
// one simulation plane, a shared load stream through the routing front
// door, and one full run per routing policy under identical seeds —
// so rows of the comparison differ only in how requests are routed.
type FederatedConfig struct {
	// Sites is the federation size; alternating sites get the calm
	// fib-day and the contended var-day trace calibration, so the
	// router always has both comfortable and struggling clusters to
	// choose between.
	Sites int

	// NodesPerSite sizes each member cluster; the per-site idle surface
	// scales from the paper day calibrations like the scientific
	// experiment's cluster slice.
	NodesPerSite int

	// Policy names the pilot-supply policy every site runs.
	Policy string

	// Routing lists the routing policies to compare; nil or empty means
	// every registered policy (router.Names).
	Routing []string

	Horizon time.Duration
	Seed    int64

	// Load generation across the whole federation.
	QPS        float64
	NumActions int
	SleepExec  time.Duration

	// CloudFallback adds the Alg. 1 commercial-cloud wrapper in front
	// of the door, so federation-wide 503s off-load instead of failing.
	// Incompatible with Shards > 1 (the wrapper couples completions to
	// subsequent arrivals, breaking the sharded lookahead contract);
	// the combination is rejected with an error.
	CloudFallback bool

	// Shards > 1 runs each site on its own event plane under the
	// conservative pdes coordinator (core.FederationConfig.Shards).
	// Results are byte-identical to the sequential run; only wall time
	// changes.
	Shards int

	// Streaming switches every metric collector (global and per-site
	// latencies, worker-state series, Slurm loggers) to O(1)-memory
	// streaming sketches, as DayConfig.Streaming does for one site. N
	// sites multiply the buffered-metrics wall, so federations are
	// where this matters first. Simulation behavior is identical.
	Streaming bool
}

// DefaultFederatedConfig returns the 4-site × 100 QPS configuration
// the federated-day scenario and benchmark run.
func DefaultFederatedConfig(seed int64) FederatedConfig {
	return FederatedConfig{
		Sites:        4,
		NodesPerSite: 256,
		Policy:       "fib",
		Horizon:      24 * time.Hour,
		Seed:         seed,
		QPS:          100,
		NumActions:   100,
		SleepExec:    10 * time.Millisecond,
	}
}

// FederatedSiteStats is one site's slice of a federated run.
type FederatedSiteStats struct {
	// Kind names the site's trace calibration: "calm" (fib day) or
	// "contended" (var day).
	Kind string

	// Issued counts requests routed to the site; SpillsIn counts the
	// subset that spilled away from their home site.
	Issued   int
	SpillsIn int

	// N503 counts the site controller's refusals; Share503 is its share
	// of the site's completed requests.
	N503     int
	Share503 float64

	// Coverage is the site's Slurm-level used share of the harvested
	// surface; HealthyAvg the time-mean healthy invoker count.
	Coverage   float64
	HealthyAvg float64

	// P95 is the successful end-to-end latency quantile observed at
	// the door.
	P95 time.Duration

	Pilots int
}

// FederatedRun is one routing policy's full-federation run.
type FederatedRun struct {
	Routing string
	Sites   []FederatedSiteStats

	// Load is the global responsiveness report; the quantiles are over
	// all successful requests federation-wide.
	Load          loadgen.Report
	P50, P95, P99 time.Duration

	// GlobalCoverage is the node-weighted mean of per-site coverage;
	// GlobalHealthyAvg the time-mean of the merged per-site healthy
	// worker counts (stats.SumTimeWeighted).
	GlobalCoverage   float64
	GlobalHealthyAvg float64

	// Routing counters: cross-site spills, requests issued while no
	// site was healthy, and calls served by the commercial cloud.
	Spilled     int
	NoSitePicks int
	CloudCalls  int

	// Latencies is the global latency collector behind P50/P95/P99 —
	// a mergeable stats.TDigest under FederatedConfig.Streaming.
	Latencies stats.Collector

	// MetricsBytes is the retained footprint of this run's metric
	// collectors across all sites.
	MetricsBytes int
}

// SpillShare is the fraction of requests that left their home site.
func (r FederatedRun) SpillShare() float64 {
	if r.Load.Issued == 0 {
		return 0
	}
	return float64(r.Spilled) / float64(r.Load.Issued)
}

// CloudShare is the fraction of requests off-loaded to the cloud.
func (r FederatedRun) CloudShare() float64 {
	if r.Load.Issued == 0 {
		return 0
	}
	return float64(r.CloudCalls) / float64(r.Load.Issued)
}

// FederatedResult bundles the per-routing-policy runs.
type FederatedResult struct {
	Config FederatedConfig
	Runs   []FederatedRun
}

// siteDay returns site i's calibrated day config: alternating calm
// (fib) and contended (var) days, each on its own seed.
func siteDay(i int, seed int64) DayConfig {
	if i%2 == 1 {
		return VarDay(seed)
	}
	return FibDay(seed)
}

// siteKind labels the calibration of site i.
func siteKind(i int) string {
	if i%2 == 1 {
		return "contended"
	}
	return "calm"
}

// RunFederatedCtx executes the comparison, one full federation run
// per routing policy, with cooperative cancellation and progress
// across all routing runs.
func RunFederatedCtx(ctx context.Context, cfg FederatedConfig, progress ProgressFunc) (FederatedResult, error) {
	routing := cfg.Routing
	if len(routing) == 0 {
		routing = router.Names()
	}
	res := FederatedResult{Config: cfg, Runs: make([]FederatedRun, 0, len(routing))}
	perRun := cfg.Horizon + dayDrain
	total := time.Duration(len(routing)) * perRun
	for i, name := range routing {
		run, err := runFederatedOnce(ctx, cfg, name,
			offsetProgress(progress, time.Duration(i)*perRun, total))
		if err != nil {
			return FederatedResult{}, err
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// runFederatedOnce runs the full federation under one routing policy.
// Everything except the routing name derives from cfg, so runs with
// different policies see identical sites, traces, and load.
func runFederatedOnce(ctx context.Context, cfg FederatedConfig, routing string, progress ProgressFunc) (FederatedRun, error) {
	// Per-site seeds come from sequential draws off one root (the
	// dist.Split discipline): site k's seed never depends on how many
	// sites follow it.
	root := dist.NewRand(cfg.Seed)
	days := make([]DayConfig, cfg.Sites)
	siteCfgs := make([]core.SiteConfig, cfg.Sites)
	for i := range siteCfgs {
		day := siteDay(i, root.Int63())
		day.Policy = cfg.Policy
		days[i] = day

		sc := core.DefaultSystemConfig(cfg.NodesPerSite, cfg.Policy)
		sc.Seed = day.Seed + 1000
		sc.StreamingStats = cfg.Streaming
		siteCfgs[i] = sc
	}

	if cfg.CloudFallback && cfg.Shards > 1 {
		return FederatedRun{}, fmt.Errorf("experiments: cloud fallback is incompatible with %d shards (the Alg. 1 wrapper couples completions to arrivals; run sequentially)", cfg.Shards)
	}
	fed := core.NewFederation(core.FederationConfig{Sites: siteCfgs, Routing: routing, Shards: cfg.Shards})
	// Per-site tail quantiles below.
	for i := range fed.Door.LatencyBySite {
		fed.Door.LatencyBySite[i] = stats.NewCollector(cfg.Streaming)
	}
	if cfg.CloudFallback {
		fed.SetFallback(lambda.NewClient(fed.Sim, lambda.DefaultClientConfig(), cfg.Seed+17))
	}

	for i, day := range days {
		fed.LoadTrace(i, day.memberTrace(cfg.NodesPerSite, cfg.Horizon).Generate())
	}

	actions := loadgen.ActionNames("sleep", cfg.NumActions)
	for _, name := range actions {
		fed.RegisterAction(&whisk.Action{
			Name:          name,
			MemoryMB:      256,
			Exec:          whisk.FixedExec(cfg.SleepExec),
			Interruptible: true,
		})
	}
	gen := loadgen.New(fed.Sim, fed, loadgen.Config{
		QPS: cfg.QPS, Actions: actions, Duration: cfg.Horizon, BucketLen: time.Minute,
		Streaming: cfg.Streaming,
	})
	gen.Start()
	fed.Start()

	if err := runWithDrain(ctx, fed.RunCtx, cfg.Horizon, dayDrain, progress); err != nil {
		return FederatedRun{}, err
	}

	run := FederatedRun{
		Routing:     routing,
		Load:        gen.Report(),
		Spilled:     fed.Door.Spilled,
		NoSitePicks: fed.Door.NoSitePicks,
		Latencies:   gen.Latencies,
	}
	run.MetricsBytes = gen.Series.Footprint() + gen.Latencies.Footprint()
	if gen.Latencies.Len() > 0 {
		run.P50 = run.Load.MedianLatency
		run.P95 = secondsDur(gen.Latencies.Quantile(0.95))
		run.P99 = secondsDur(gen.Latencies.Quantile(0.99))
	}
	if fed.Wrap != nil {
		run.CloudCalls = fed.Wrap.FallbackCalls
	}

	end := fed.Sim.Now()
	healthySeries := make([]stats.TimeSeries, 0, len(fed.Sites))
	var coverage float64
	for i, site := range fed.Sites {
		ow := site.Manager.OWStats(end) // finishes the state series
		slurm := site.Logger.Stats()
		s := FederatedSiteStats{
			Kind:       siteKind(i),
			Issued:     fed.Door.IssuedBySite[i],
			SpillsIn:   fed.Door.SpillsIn[i],
			N503:       site.Ctrl.N503,
			Coverage:   slurm.ShareUsed,
			HealthyAvg: ow.HealthyAvg,
			Pilots:     site.Manager.PilotsStarted,
		}
		completed := site.Ctrl.NSuccess + site.Ctrl.NFailed + site.Ctrl.NTimeout + site.Ctrl.N503
		if completed > 0 {
			s.Share503 = float64(s.N503) / float64(completed)
		}
		if lat := fed.Door.LatencyBySite[i]; lat.Len() > 0 {
			s.P95 = secondsDur(lat.Quantile(0.95))
		}
		run.MetricsBytes += fed.Door.LatencyBySite[i].Footprint()
		run.MetricsBytes += site.Logger.Footprint() +
			site.Manager.States.Warming.Footprint() +
			site.Manager.States.Healthy.Footprint() +
			site.Manager.States.Irresp.Footprint()
		run.Sites = append(run.Sites, s)
		healthySeries = append(healthySeries, site.Manager.States.Healthy)
		coverage += slurm.ShareUsed * float64(siteCfgs[i].Nodes)
	}
	var nodes float64
	for _, sc := range siteCfgs {
		nodes += float64(sc.Nodes)
	}
	if nodes > 0 {
		run.GlobalCoverage = coverage / nodes
	}
	// Buffered runs keep the event-sweep merge (the exact pre-streaming
	// value, last-ULP included); streaming runs use the integral
	// identity Σ∫vᵢdt / span, which needs no buffered segments and is
	// mathematically the same quantity.
	if buffered := bufferedSeries(healthySeries); buffered != nil {
		run.GlobalHealthyAvg = stats.SumTimeWeighted(buffered...).TimeMean()
	} else {
		run.GlobalHealthyAvg = stats.SumTimeMeanOf(healthySeries...)
	}
	return run, nil
}

// bufferedSeries down-casts a series set to the buffered type, or nil
// if any member is a streaming series.
func bufferedSeries(series []stats.TimeSeries) []*stats.TimeWeighted {
	out := make([]*stats.TimeWeighted, len(series))
	for i, s := range series {
		tw, ok := s.(*stats.TimeWeighted)
		if !ok {
			return nil
		}
		out[i] = tw
	}
	return out
}

// Digests exposes each routing run's global latency digest for
// sweep-level merging; nil when the run was buffered (non-Streaming).
func (r FederatedResult) Digests() map[string]*stats.TDigest {
	out := map[string]*stats.TDigest{}
	for _, run := range r.Runs {
		if d, ok := run.Latencies.(*stats.TDigest); ok {
			out[run.Routing+"-latency-s"] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Metrics flattens the comparison for the sweep engine: per routing
// policy, the headline responsiveness and routing numbers.
func (r FederatedResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, run := range r.Runs {
		m[run.Routing+"-invoked-share"] = run.Load.InvokedShare
		m[run.Routing+"-success-share"] = run.Load.SuccessShare
		m[run.Routing+"-p95-latency-ms"] = float64(run.P95.Milliseconds())
		m[run.Routing+"-spill-share"] = run.SpillShare()
		m[run.Routing+"-healthy-avg"] = run.GlobalHealthyAvg
		m[run.Routing+"-coverage"] = run.GlobalCoverage
		if r.Config.CloudFallback {
			m[run.Routing+"-cloud-share"] = run.CloudShare()
		}
	}
	return m
}

// Render prints the routing-policy comparison table plus the per-site
// breakdown of each run.
func (r FederatedResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Federated day — %d sites × %d nodes, %s supply, %.0f QPS, %v\n",
		r.Config.Sites, r.Config.NodesPerSite, r.Config.Policy, r.Config.QPS, r.Config.Horizon)
	fmt.Fprintf(w, "  %-18s %8s %8s %8s %8s %8s %7s %7s %9s %6s\n",
		"routing", "invoked", "success", "p50", "p95", "p99", "spill", "no-site", "healthy", "cov")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "  %-18s %7.2f%% %7.2f%% %8s %8s %8s %6.2f%% %7d %9.2f %5.1f%%\n",
			run.Routing, 100*run.Load.InvokedShare, 100*run.Load.SuccessShare,
			run.P50.Round(time.Millisecond), run.P95.Round(time.Millisecond),
			run.P99.Round(time.Millisecond), 100*run.SpillShare(), run.NoSitePicks,
			run.GlobalHealthyAvg, 100*run.GlobalCoverage)
	}
	if r.Config.CloudFallback {
		for _, run := range r.Runs {
			fmt.Fprintf(w, "  %-18s cloud off-load %.2f%%\n", run.Routing, 100*run.CloudShare())
		}
	}
	for _, run := range r.Runs {
		fmt.Fprintf(w, "  [%s] per site:\n", run.Routing)
		for i, s := range run.Sites {
			fmt.Fprintf(w, "    site %d (%-9s): issued=%-7d spills-in=%-6d 503=%5.2f%% cov=%5.1f%% healthy=%6.2f p95=%-8s pilots=%d\n",
				i, s.Kind, s.Issued, s.SpillsIn, 100*s.Share503, 100*s.Coverage,
				s.HealthyAvg, s.P95.Round(time.Millisecond), s.Pilots)
		}
	}
}
