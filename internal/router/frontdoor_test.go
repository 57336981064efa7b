package router

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/whisk"
)

// fakeSite is a synchronous Site: Invoke completes immediately with a
// configurable status and latency.
type fakeSite struct {
	healthy int
	util    float64
	queue   int
	fl      int
	drain   int

	status  whisk.Status
	latency time.Duration
	invoked int
}

func (s *fakeSite) Invoke(action string, done func(*whisk.Invocation)) {
	s.invoked++
	inv := &whisk.Invocation{
		Submitted: 0,
		Completed: s.latency,
		Status:    s.status,
	}
	if done != nil {
		done(inv)
	}
}

func (s *fakeSite) HealthyInvokers() int  { return s.healthy }
func (s *fakeSite) Utilization() float64  { return s.util }
func (s *fakeSite) QueueDepth() int       { return s.queue }
func (s *fakeSite) FastLaneDepth() int    { return s.fl }
func (s *fakeSite) DrainingInvokers() int { return s.drain }

func newFakeSites(n int) ([]*fakeSite, []Site) {
	fs := make([]*fakeSite, n)
	sites := make([]Site, n)
	for i := range fs {
		fs[i] = &fakeSite{healthy: 4, status: whisk.StatusSuccess, latency: 800 * time.Millisecond}
		sites[i] = fs[i]
	}
	return fs, sites
}

// TestFrontDoorSingleSite: with one site the front door always routes
// to it — healthy or not — so the single-cluster path is preserved
// exactly (the byte-identity precondition of the day goldens).
func TestFrontDoorSingleSite(t *testing.T) {
	fs, sites := newFakeSites(1)
	fd := NewFrontDoor(sites, MustNew("capacity-weighted"))
	for i := 0; i < 10; i++ {
		fd.Invoke("sleep-001", nil)
	}
	fs[0].healthy = 0 // killed: still must land on site 0 (as a 503)
	fs[0].status = whisk.Status503
	for i := 0; i < 10; i++ {
		fd.Invoke("sleep-001", nil)
	}
	if fs[0].invoked != 20 {
		t.Fatalf("site 0 saw %d invocations, want 20", fs[0].invoked)
	}
	if fd.Spilled != 0 {
		t.Fatalf("1-site federation spilled %d requests", fd.Spilled)
	}
	if fd.NoSitePicks != 10 {
		t.Fatalf("NoSitePicks = %d, want 10", fd.NoSitePicks)
	}
}

// TestFrontDoorSpillAccounting: a dead home site spills its traffic to
// a healthy one and the counters record it.
func TestFrontDoorSpillAccounting(t *testing.T) {
	fs, sites := newFakeSites(2)
	fd := NewFrontDoor(sites, MustNew("capacity-weighted"))
	action := "spill-test"
	home := fd.Home(action)
	other := 1 - home
	fs[home].healthy = 0
	const calls = 50
	for i := 0; i < calls; i++ {
		fd.Invoke(action, nil)
	}
	if fs[other].invoked != calls {
		t.Fatalf("healthy site saw %d calls, want %d", fs[other].invoked, calls)
	}
	if fd.Spilled != calls || fd.SpillsIn[other] != calls {
		t.Fatalf("Spilled=%d SpillsIn=%v, want %d spills into site %d",
			fd.Spilled, fd.SpillsIn, calls, other)
	}
	if fd.IssuedBySite[other] != calls || fd.IssuedBySite[home] != 0 {
		t.Fatalf("IssuedBySite = %v", fd.IssuedBySite)
	}
}

// TestFrontDoorNoSiteRotation: with every site dead, requests rotate
// deterministically across the sites (each surfaces its own 503).
func TestFrontDoorNoSiteRotation(t *testing.T) {
	fs, sites := newFakeSites(3)
	for _, s := range fs {
		s.healthy = 0
		s.status = whisk.Status503
	}
	fd := NewFrontDoor(sites, MustNew("latency-weighted"))
	for i := 0; i < 9; i++ {
		fd.Invoke("a", nil)
	}
	for i, s := range fs {
		if s.invoked != 3 {
			t.Fatalf("dead-rotation: site %d saw %d, want 3", i, s.invoked)
		}
	}
	if fd.NoSitePicks != 9 {
		t.Fatalf("NoSitePicks = %d, want 9", fd.NoSitePicks)
	}
}

// TestFrontDoorLatencySignal: completions feed the per-site EWMA and
// tail samples, and the latency-weighted policy reacts to them.
func TestFrontDoorLatencySignal(t *testing.T) {
	fs, sites := newFakeSites(2)
	fs[0].latency = 2 * time.Second
	fs[1].latency = 100 * time.Millisecond
	fd := NewFrontDoor(sites, MustNew("latency-weighted"))
	fd.CollectLatencies(true)

	// Probe both sites once (unprobed sites report 0 and win the scan).
	action := "lat-test"
	home := fd.Home(action)
	fd.Invoke(action, nil) // lands home (lat 0)
	if fd.Latency(home) == 0 {
		t.Fatal("home latency EWMA not updated after a success")
	}
	fd.Invoke(action, nil) // other site still unprobed → wins
	if fd.Latency(0) == 0 || fd.Latency(1) == 0 {
		t.Fatalf("both sites should be probed, EWMAs = %v / %v", fd.Latency(0), fd.Latency(1))
	}
	// From here on, every request must go to the fast site 1.
	before := fs[1].invoked
	for i := 0; i < 20; i++ {
		fd.Invoke(action, nil)
	}
	if fs[1].invoked != before+20 {
		t.Fatalf("fast site got %d of 20 post-probe calls", fs[1].invoked-before)
	}
	if fd.LatencyBySite[1].Len() == 0 {
		t.Fatal("per-site latency sample empty")
	}
	// Failed calls must not pollute the latency signal.
	fs[1].status = whisk.StatusFailed
	ewma := fd.Latency(1)
	fd.Invoke(action, nil)
	if fd.Latency(1) != ewma {
		t.Fatal("failed completion changed the latency EWMA")
	}
}

// TestFrontDoorCallPooling: completion contexts recycle instead of
// accumulating.
func TestFrontDoorCallPooling(t *testing.T) {
	_, sites := newFakeSites(2)
	fd := NewFrontDoor(sites, MustNew("capacity-weighted"))
	for i := 0; i < 1000; i++ {
		fd.Invoke("pool-test", func(*whisk.Invocation) {})
	}
	// Synchronous completion: after every call returned, exactly one
	// pooled context should exist.
	if len(fd.callPool) != 1 {
		t.Fatalf("callPool holds %d contexts after 1000 synchronous calls, want 1", len(fd.callPool))
	}
}

// TestFrontDoorHomeStable: the home assignment is a pure function of
// the action name.
func TestFrontDoorHomeStable(t *testing.T) {
	_, sites := newFakeSites(4)
	fd := NewFrontDoor(sites, MustNew("capacity-weighted"))
	seen := map[int]bool{}
	for _, a := range []string{"sleep-000", "sleep-001", "sleep-002", "sleep-007", "bfs", "pagerank"} {
		h := fd.Home(a)
		if h < 0 || h >= 4 {
			t.Fatalf("home %d out of range for %q", h, a)
		}
		if h2 := fd.Home(a); h2 != h {
			t.Fatalf("home not stable for %q: %d then %d", a, h, h2)
		}
		seen[h] = true
	}
	if len(seen) < 2 {
		t.Fatalf("home hash maps every action to one site: %v", seen)
	}
}

// TestSnapshotViews: with snapshots enabled every View method answers
// from the state captured at the last Refresh — mid-window site
// changes are invisible to routing until the next grid instant — and
// without snapshots the views stay live.
func TestSnapshotViews(t *testing.T) {
	fs, sites := newFakeSites(2)
	fd := NewFrontDoor(sites, MustNew("capacity-weighted"))

	// Live views before EnableSnapshots.
	fs[0].healthy = 1
	if got := fd.HealthyInvokers(0); got != 1 {
		t.Fatalf("live HealthyInvokers = %d, want 1", got)
	}
	fd.Invoke("seed-latency", nil) // one 800ms success seeds the EWMA
	if fd.Latency(fd.Home("seed-latency")) == 0 {
		t.Fatal("latency EWMA not seeded")
	}

	fd.EnableSnapshots()
	lat0 := fd.Latency(0)
	// Mutate everything the snapshot captured.
	fs[0].healthy, fs[0].util, fs[0].queue, fs[0].fl, fs[0].drain = 7, 0.5, 3, 2, 1
	for i := 0; i < 50; i++ {
		fd.Invoke("seed-latency", nil) // moves the live EWMA
	}
	if got := fd.HealthyInvokers(0); got != 1 {
		t.Errorf("snapshot HealthyInvokers = %d, want the captured 1", got)
	}
	if !fd.Healthy(0) {
		t.Error("snapshot Healthy flipped without a Refresh")
	}
	if got := fd.Utilization(0); got != 0 {
		t.Errorf("snapshot Utilization = %v, want the captured 0", got)
	}
	if got := fd.QueueDepth(0); got != 0 {
		t.Errorf("snapshot QueueDepth = %v, want the captured 0", got)
	}
	if got := fd.FastLaneDepth(0); got != 0 {
		t.Errorf("snapshot FastLaneDepth = %v, want the captured 0", got)
	}
	if got := fd.Draining(0); got != 0 {
		t.Errorf("snapshot Draining = %v, want the captured 0", got)
	}
	if got := fd.Latency(0); got != lat0 {
		t.Errorf("snapshot Latency = %v, want the captured %v", got, lat0)
	}

	fd.Refresh()
	if got := fd.HealthyInvokers(0); got != 7 {
		t.Errorf("refreshed HealthyInvokers = %d, want 7", got)
	}
	if got := fd.Utilization(0); got != 0.5 {
		t.Errorf("refreshed Utilization = %v, want 0.5", got)
	}
	if got := fd.Draining(0); got != 1 {
		t.Errorf("refreshed Draining = %v, want 1", got)
	}
}

// TestSnapshotEvery: the refresh ticker recaptures the view on the
// DefaultSnapshotInterval grid, first at now+DefaultSnapshotInterval.
func TestSnapshotEvery(t *testing.T) {
	fs, sites := newFakeSites(2)
	fd := NewFrontDoor(sites, MustNew("capacity-weighted"))
	sim := des.New()
	fd.SnapshotEvery(sim)

	fs[1].healthy = 9
	sim.RunUntil(des.Time(DefaultSnapshotInterval) - 1)
	if got := fd.HealthyInvokers(1); got != 4 {
		t.Errorf("before the first grid instant: HealthyInvokers = %d, want the captured 4", got)
	}
	sim.RunUntil(des.Time(DefaultSnapshotInterval))
	if got := fd.HealthyInvokers(1); got != 9 {
		t.Errorf("after the first refresh: HealthyInvokers = %d, want 9", got)
	}
	fs[1].healthy = 2
	sim.RunUntil(des.Time(2*DefaultSnapshotInterval) - 1)
	if got := fd.HealthyInvokers(1); got != 9 {
		t.Errorf("mid second window: HealthyInvokers = %d, want 9", got)
	}
	sim.RunUntil(des.Time(2 * DefaultSnapshotInterval))
	if got := fd.HealthyInvokers(1); got != 2 {
		t.Errorf("after the second refresh: HealthyInvokers = %d, want 2", got)
	}
}
