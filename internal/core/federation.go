package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/pdes"
	"repro/internal/policy"
	"repro/internal/router"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// DefaultRouting is the routing policy a federation uses when its
// config names none: route by free capacity.
const DefaultRouting = "capacity-weighted"

// FederationConfig wires N independent Slurm+whisk sites behind one
// routing front door on a shared simulation plane.
type FederationConfig struct {
	// Sites holds one deployment config per site. Each site's seeds
	// derive from its own SiteConfig.Seed, so a site's behaviour depends
	// only on its own config. Policy instances are stateful: every
	// SiteConfig must carry its own instance, never a shared one.
	Sites []SiteConfig

	// Routing names the front-door policy in the router registry
	// (router.Names). Empty means DefaultRouting.
	Routing string

	// Shards > 1 builds each site on its own event plane and runs the
	// federation under the conservative pdes coordinator with
	// min(Shards, len(Sites)) worker goroutines; ≤ 1 keeps the
	// sequential shared-plane execution. Both modes produce
	// byte-identical output (the pdes determinism contract); sharding
	// only changes wall-clock time.
	Shards int

	// SnapshotInterval overrides the routing health-snapshot refresh
	// period of multi-site federations (≤ 0 means
	// router.DefaultSnapshotInterval). It is also the sharded run's
	// lookahead window. Ignored for 1-site federations, which keep
	// live health reads (every pick lands on the only site either
	// way, and the fib/var day goldens pin that path).
	SnapshotInterval time.Duration
}

// UniformFederationConfig builds an n-site federation of identical
// deployments from one base config. Per-site seeds are drawn
// sequentially from a root generator seeded with base.Seed (the
// dist.Split discipline), so growing a federation from n to n+1 sites
// never perturbs sites 0..n-1. A registry-built supply policy
// (DefaultSystemConfig's) is re-instantiated per site by its registered
// name; an unregistered custom policy instance panics — build
// cfg.Sites explicitly to federate those.
func UniformFederationConfig(n int, base SiteConfig) FederationConfig {
	root := dist.NewRand(base.Seed)
	sites := make([]SiteConfig, n)
	for i := range sites {
		cfg := base
		cfg.Seed = root.Int63()
		if base.Manager.Policy != nil {
			cfg.Manager.Policy = policy.MustNew(base.Manager.Policy.Name())
		}
		sites[i] = cfg
	}
	return FederationConfig{Sites: sites, Routing: DefaultRouting}
}

// Federation hosts N sites behind a routing front door. Sequential
// (Shards ≤ 1): all sites share one DES plane. Sharded: each site has
// its own plane, Sim is the front plane (load generator, door
// bookkeeping), and the pdes coordinator advances them in lockstep
// lookahead windows — byte-identically to the sequential run. Clients
// invoke through the federation (or its Door/Wrap directly); each
// site's pilot manager, Slurm emulator, and logger run independently.
type Federation struct {
	Sim   *des.Sim
	Sites []*Site

	// Door is the routing front door: home-site hashing plus the
	// configured routing policy over the per-site health view —
	// grid-snapshot-consistent for multi-site federations, live for
	// 1-site ones.
	Door *router.FrontDoor

	// Wrap is the Alg. 1 wrapper over the front door; nil until
	// SetFallback installs one.
	Wrap *Wrapper

	// coord is the conservative parallel coordinator; nil in the
	// sequential mode.
	coord *pdes.Coordinator
}

// doorBackend adapts the front door to core.Backend (the wrapper's
// primary). The front door completes through callbacks only, so the
// synchronous return is always nil.
type doorBackend struct{ d *router.FrontDoor }

// Invoke implements Backend.
func (b doorBackend) Invoke(action string, done func(*whisk.Invocation)) *whisk.Invocation {
	b.d.Invoke(action, done)
	return nil
}

// shardSite adapts one sharded site for the front door: Invoke queues
// a timestamped inter-shard message on the site's pdes inbox, and the
// health getters read the site directly — the coordinator only calls
// them at grid barriers (the door's Refresh), when every shard rests
// at exactly the barrier instant.
type shardSite struct {
	sh   *pdes.Shard
	site *Site
}

func (p *shardSite) Invoke(action string, done func(*whisk.Invocation)) {
	p.sh.Invoke(action, done)
}
func (p *shardSite) HealthyInvokers() int  { return p.site.HealthyInvokers() }
func (p *shardSite) Utilization() float64  { return p.site.Utilization() }
func (p *shardSite) QueueDepth() int       { return p.site.QueueDepth() }
func (p *shardSite) FastLaneDepth() int    { return p.site.FastLaneDepth() }
func (p *shardSite) DrainingInvokers() int { return p.site.DrainingInvokers() }

// NewFederation builds the sites and wires the front door — on one
// shared simulation plane (Shards ≤ 1), or on per-site planes under
// the conservative pdes coordinator (Shards > 1). An empty Sites list
// or an unknown routing policy is a configuration bug and panics.
func NewFederation(cfg FederationConfig) *Federation {
	if len(cfg.Sites) == 0 {
		panic("core: a federation needs at least one site")
	}
	routing := cfg.Routing
	if routing == "" {
		routing = DefaultRouting
	}
	pol, err := router.New(routing)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	snap := cfg.SnapshotInterval
	if snap <= 0 {
		snap = router.DefaultSnapshotInterval
	}
	front := des.New()
	f := &Federation{Sim: front, Sites: make([]*Site, len(cfg.Sites))}
	rsites := make([]router.Site, len(cfg.Sites))
	if cfg.Shards > 1 {
		f.coord = pdes.New(front, snap, cfg.Shards)
		for i, sc := range cfg.Sites {
			ssim := des.New()
			f.Sites[i] = NewSite(ssim, sc)
			rsites[i] = &shardSite{sh: f.coord.AddShard(ssim, f.Sites[i]), site: f.Sites[i]}
		}
	} else {
		for i, sc := range cfg.Sites {
			f.Sites[i] = NewSite(front, sc)
			rsites[i] = f.Sites[i]
		}
	}
	f.Door = router.NewFrontDoor(rsites, pol)
	// Multi-site federations route from grid-snapshot health views in
	// both modes — the snapshot grid is the sharded run's lookahead
	// window, and the sequential run adopts the same grid so the two
	// stay byte-identical. 1-site federations keep live reads.
	if len(cfg.Sites) > 1 {
		if f.coord != nil {
			f.Door.EnableSnapshots()
			f.coord.OnBarrier = f.Door.Refresh
		} else {
			f.Door.SnapshotEvery(front, snap)
		}
	}
	return f
}

// SetFallback wraps the front door in the Alg. 1 client-side wrapper
// (§III-E): a federation-wide 503 — every site unhealthy or the picked
// site refusing — off-loads to b (e.g. the commercial-cloud model of
// internal/lambda, built against the federation's clock) for the
// cooldown window. Panics on a sharded federation: the wrapper's
// cooldown state couples completions to subsequent arrivals, which
// breaks the sharded run's lookahead contract (see internal/pdes).
func (f *Federation) SetFallback(b Backend) {
	if f.coord != nil {
		panic("core: a sharded federation cannot host the Alg. 1 fallback wrapper (completion-coupled cooldown state breaks the lookahead contract)")
	}
	f.Wrap = NewWrapper(f.Sim, doorBackend{f.Door}, b)
}

// Invoke submits a request through the federation's client entry
// point: the Alg. 1 wrapper when a fallback is configured, the bare
// front door otherwise. Federation therefore satisfies the load
// generator's Backend interface directly.
func (f *Federation) Invoke(action string, done func(*whisk.Invocation)) {
	if f.Wrap != nil {
		f.Wrap.Invoke(action, done)
		return
	}
	f.Door.Invoke(action, done)
}

// LoadTrace drives site i with an exogenous availability trace.
func (f *Federation) LoadTrace(i int, tr *workload.Trace) { f.Sites[i].LoadTrace(tr) }

// RegisterAction registers an action on every site's controller, so a
// request can land anywhere the router sends it.
func (f *Federation) RegisterAction(a *whisk.Action) {
	for _, s := range f.Sites {
		s.Ctrl.RegisterAction(a)
	}
}

// Start launches every site (managers, schedulers, loggers).
func (f *Federation) Start() {
	for _, s := range f.Sites {
		s.Start()
	}
}

// Run advances the federation by d. Sequential mode advances the
// shared plane; sharded mode drives the pdes coordinator, which
// advances the front plane and every site shard through the same
// window in lockstep lookahead intervals. Either way, every event in
// [now, now+d] fires in the canonical (when, seq) order, so the two
// modes produce byte-identical state.
func (f *Federation) Run(d time.Duration) {
	if f.coord != nil {
		f.coord.RunFor(d)
		return
	}
	f.Sim.RunFor(d)
}

// RunCtx advances the federation by d in epoch-sized chunks, checking
// ctx between chunks; see runCtx. Sharded federations chunk the
// coordinator the same way — cancellation lands on an epoch boundary
// with every shard synchronized there.
func (f *Federation) RunCtx(ctx context.Context, d, epoch time.Duration, progress func(done, total time.Duration)) error {
	if f.coord != nil {
		return runCtx(f.coord, ctx, d, epoch, progress)
	}
	return runCtx(f.Sim, ctx, d, epoch, progress)
}
