package router

import (
	"time"

	"repro/internal/des"
	"repro/internal/stats"
	"repro/internal/whisk"
)

// latencyEWMAWeight is the weight of the newest latency sample in the
// per-site moving average the latency-weighted policy reads. Small
// enough to smooth per-request jitter, large enough to track a site
// degrading within a few hundred requests.
const latencyEWMAWeight = 0.05

// DefaultSnapshotInterval is the refresh period of the snapshot-
// consistent health view a multi-site federation routes from
// (FrontDoor.SnapshotEvery / Refresh): between refreshes, every routing
// decision reads the state captured at the last grid instant. The one
// microsecond offset keeps the refresh grid off the exact instants the
// simulation already populates — the minute-aligned site tickers and
// the regular load-generator arrival grid — so a refresh never ties
// with them, and which side of a refresh an arrival or a tick falls on
// never hangs on scheduling order.
const DefaultSnapshotInterval = time.Second + time.Microsecond

// FrontDoor is the federation's single client entry point: every
// request is assigned a hash-derived home site, the routing policy
// picks the target from the live health view, and the call goes to
// that site's controller. The front door itself is passive plumbing —
// it schedules no simulation events, draws no randomness, and
// allocates nothing per request (the per-call context is pooled with a
// cached method-value callback, the core.Wrapper pattern) — so a
// 1-site federation's event sequence is byte-identical to the bare
// single-cluster path.
type FrontDoor struct {
	sites  []Site
	policy RoutingPolicy

	// lat is the per-site EWMA of successful end-to-end latency
	// (seconds) backing View.Latency.
	lat []float64

	// LatencyBySite collects successful end-to-end latencies per site
	// (seconds), for the per-site tail quantiles of the federated
	// experiments: a site's latencies are recorded iff its entry is
	// non-nil. Entries start nil; the caller installs collectors
	// (stats.NewCollector) or calls CollectLatencies. Growing samples
	// are the one measurement that would break the door's
	// allocation-free request path, so plain runs skip them (the EWMA
	// backing View.Latency is always maintained).
	LatencyBySite []stats.Collector

	// snap holds the per-site health signals captured at the last
	// Refresh; snapshotting switches the View methods from live site
	// reads to the snapshot. See EnableSnapshots.
	snap         []siteSnap
	snapshotting bool

	// callPool recycles the per-call completion context; fn is created
	// once per pooled object, never per request.
	callPool []*fdCall

	// Per-site counters: requests issued to each site, and requests
	// that landed there by spilling away from their home site.
	IssuedBySite []int
	SpillsIn     []int

	// Issued counts all requests; Spilled counts cross-site spills
	// (picked site ≠ home site); NoSitePicks counts requests issued
	// while no site was healthy (they surface a real 503, which the
	// Alg. 1 wrapper turns into a cloud off-load when configured).
	Issued      int
	Spilled     int
	NoSitePicks int
}

// siteSnap is one site's health signals as captured at a Refresh.
type siteSnap struct {
	healthyInvokers int
	utilization     float64
	queueDepth      int
	fastLaneDepth   int
	draining        int
	latency         float64
}

// EnableSnapshots switches the door's View from live per-site reads to
// the snapshot captured at the last Refresh, and captures the initial
// snapshot now. Multi-site federations route from snapshots refreshed
// on the DefaultSnapshotInterval grid (SnapshotEvery). 1-site doors
// keep live views — with one site every pick lands there regardless,
// and the fib/var day goldens pin that path.
func (fd *FrontDoor) EnableSnapshots() {
	if fd.snap == nil {
		fd.snap = make([]siteSnap, len(fd.sites))
	}
	fd.snapshotting = true
	fd.Refresh()
}

// Refresh recaptures the health snapshot from every site; a plane
// ticker drives it (SnapshotEvery).
//
// Refresh costs O(sites), independent of cluster size: every signal a
// whisk.Controller-backed site answers here is a maintained aggregate
// (field read), not a scan over its invokers — which is what keeps
// federated routing flat from 1k to 100k nodes per site.
func (fd *FrontDoor) Refresh() {
	for i, s := range fd.sites {
		fd.snap[i] = siteSnap{
			healthyInvokers: s.HealthyInvokers(),
			utilization:     s.Utilization(),
			queueDepth:      s.QueueDepth(),
			fastLaneDepth:   s.FastLaneDepth(),
			draining:        s.DrainingInvokers(),
			latency:         fd.lat[i],
		}
	}
}

// SnapshotEvery enables snapshot views and schedules the refresh on
// the plane hosting the door: first at now+DefaultSnapshotInterval,
// then every DefaultSnapshotInterval.
func (fd *FrontDoor) SnapshotEvery(sim *des.Sim) *des.Ticker {
	fd.EnableSnapshots()
	return sim.Every(DefaultSnapshotInterval, fd.Refresh)
}

// fdCall is one in-flight request's completion context.
type fdCall struct {
	fd   *FrontDoor
	site int
	done func(*whisk.Invocation)
	fn   func(*whisk.Invocation)
}

// onDone records the site's observed latency and hands the outcome to
// the caller. The context returns to the pool first, so a re-entrant
// Invoke from done can reuse it.
func (c *fdCall) onDone(inv *whisk.Invocation) {
	fd, site, done := c.fd, c.site, c.done
	c.done = nil
	fd.callPool = append(fd.callPool, c)
	if inv.Status == whisk.StatusSuccess {
		l := (inv.Completed - inv.Submitted).Seconds()
		if lat := fd.LatencyBySite[site]; lat != nil {
			lat.Add(l)
		}
		if fd.lat[site] == 0 {
			fd.lat[site] = l
		} else {
			fd.lat[site] += latencyEWMAWeight * (l - fd.lat[site])
		}
	}
	if done != nil {
		done(inv)
	}
}

// NewFrontDoor wires a front door over the federated sites. The policy
// is Init-ed here; pass a fresh instance per front door.
func NewFrontDoor(sites []Site, pol RoutingPolicy) *FrontDoor {
	if len(sites) == 0 {
		panic("router: a front door needs at least one site")
	}
	fd := &FrontDoor{
		sites:         sites,
		policy:        pol,
		lat:           make([]float64, len(sites)),
		LatencyBySite: make([]stats.Collector, len(sites)),
		IssuedBySite:  make([]int, len(sites)),
		SpillsIn:      make([]int, len(sites)),
	}
	pol.Init(len(sites))
	return fd
}

// Policy exposes the active routing policy.
func (fd *FrontDoor) Policy() RoutingPolicy { return fd.policy }

// CollectLatencies turns the per-site latency samples (LatencyBySite)
// on, with exact buffered stats.Sample collectors where none is
// installed, or off, dropping every collector. Off by default: the
// samples grow with the request count, and the plain day path must
// stay allocation-free per request.
func (fd *FrontDoor) CollectLatencies(on bool) {
	for i, c := range fd.LatencyBySite {
		if !on {
			fd.LatencyBySite[i] = nil
		} else if c == nil {
			fd.LatencyBySite[i] = stats.NewCollector(false)
		}
	}
}

// Home returns the action's hash-derived home site — the same
// stable-modulus symmetry the whisk controller uses for home invokers,
// so an action keeps its site (and its warm containers) for the whole
// run. A one-site door (every production day) skips the hash.
func (fd *FrontDoor) Home(action string) int {
	if len(fd.sites) == 1 {
		return 0
	}
	return int(fnv32(action)) % len(fd.sites)
}

// fnv32 is the FNV-1a hash of the action name (allocation-free).
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// getCall pops the pool or builds a new completion context.
func (fd *FrontDoor) getCall() *fdCall {
	if k := len(fd.callPool); k > 0 {
		c := fd.callPool[k-1]
		fd.callPool[k-1] = nil
		fd.callPool = fd.callPool[:k-1]
		return c
	}
	c := &fdCall{fd: fd}
	c.fn = c.onDone
	return c
}

// Invoke routes one request: policy pick from the live view, or — when
// no site is healthy — a deterministic rotation over the sites so the
// refusal surfaces as a real controller 503 (which the Alg. 1 wrapper
// can then off-load). done fires exactly once.
func (fd *FrontDoor) Invoke(action string, done func(*whisk.Invocation)) {
	home := fd.Home(action)
	pick := fd.policy.Pick(fd, action, home)
	if pick < 0 || pick >= len(fd.sites) {
		pick = fd.Issued % len(fd.sites)
		fd.NoSitePicks++
	} else if pick != home {
		fd.Spilled++
		fd.SpillsIn[pick]++
	}
	fd.Issued++
	fd.IssuedBySite[pick]++
	c := fd.getCall()
	c.site, c.done = pick, done
	fd.sites[pick].Invoke(action, c.fn)
}

// The front door implements View over its own site list, so policies
// read health signals with no intermediate snapshot allocation. With
// snapshots enabled (every multi-site federation) the methods answer
// from the grid snapshot — the signal set every routing decision in a
// window agrees on, in both execution modes; without (1-site doors,
// hand-built test doors) they read the sites live.

// NumSites implements View.
func (fd *FrontDoor) NumSites() int { return len(fd.sites) }

// Healthy implements View.
func (fd *FrontDoor) Healthy(i int) bool {
	if fd.snapshotting {
		return fd.snap[i].healthyInvokers > 0
	}
	return fd.sites[i].HealthyInvokers() > 0
}

// HealthyInvokers implements View.
func (fd *FrontDoor) HealthyInvokers(i int) int {
	if fd.snapshotting {
		return fd.snap[i].healthyInvokers
	}
	return fd.sites[i].HealthyInvokers()
}

// Utilization implements View.
func (fd *FrontDoor) Utilization(i int) float64 {
	if fd.snapshotting {
		return fd.snap[i].utilization
	}
	return fd.sites[i].Utilization()
}

// QueueDepth implements View.
func (fd *FrontDoor) QueueDepth(i int) int {
	if fd.snapshotting {
		return fd.snap[i].queueDepth
	}
	return fd.sites[i].QueueDepth()
}

// FastLaneDepth implements View.
func (fd *FrontDoor) FastLaneDepth(i int) int {
	if fd.snapshotting {
		return fd.snap[i].fastLaneDepth
	}
	return fd.sites[i].FastLaneDepth()
}

// Draining implements View.
func (fd *FrontDoor) Draining(i int) int {
	if fd.snapshotting {
		return fd.snap[i].draining
	}
	return fd.sites[i].DrainingInvokers()
}

// Latency implements View.
func (fd *FrontDoor) Latency(i int) float64 {
	if fd.snapshotting {
		return fd.snap[i].latency
	}
	return fd.lat[i]
}
