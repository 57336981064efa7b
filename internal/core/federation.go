package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/dist"
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

// Federation hosts N sites behind a routing front door, all on one
// shared DES plane. Clients invoke through the federation (or its
// Door/Wrap directly); each site's pilot manager, Slurm emulator, and
// logger run independently.
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
}

// NewFederation builds the sites on one shared simulation plane and
// wires the front door. An empty Sites list or an unknown routing
// policy is a configuration bug and panics.
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
	sim := des.New()
	f := &Federation{Sim: sim, Sites: make([]*Site, len(cfg.Sites))}
	rsites := make([]router.Site, len(cfg.Sites))
	for i, sc := range cfg.Sites {
		f.Sites[i] = NewSite(sim, sc)
		rsites[i] = f.Sites[i]
	}
	f.Door = router.NewFrontDoor(rsites, pol)
	// Multi-site federations route from health snapshots refreshed on
	// the router.DefaultSnapshotInterval grid. 1-site federations keep
	// live reads: every pick lands on the only site either way, and the
	// fib/var day goldens pin that path.
	if len(cfg.Sites) > 1 {
		f.Door.SnapshotEvery(sim)
	}
	return f
}

// SetFallback wraps the front door in the Alg. 1 client-side wrapper
// (§III-E): a federation-wide 503 — every site unhealthy or the picked
// site refusing — off-loads to b (e.g. the commercial-cloud model of
// internal/lambda, built against the federation's clock) for the
// cooldown window.
func (f *Federation) SetFallback(b Backend) {
	f.Wrap = NewWrapper(f.Sim, f.Door, b)
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

// Run advances the federation by d: every site on the shared plane
// moves together.
func (f *Federation) Run(d time.Duration) { f.Sim.RunFor(d) }

// RunCtx advances the federation by d in DefaultEpoch chunks, checking
// ctx between chunks; see runCtx.
func (f *Federation) RunCtx(ctx context.Context, d time.Duration, progress func(done, total time.Duration)) error {
	return runCtx(f.Sim, ctx, d, progress)
}
