package policy

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/dist"
)

// fakeEnv is a scripted policy.Env: submissions land in queues the
// observation methods read back, so a policy's control law can be
// exercised without a simulator.
type fakeEnv struct {
	now time.Duration

	fixed    map[time.Duration]int
	fixedSub []time.Duration // submission order
	flexible int
	running  int
	healthy  int
	util     float64
	done     int
	n503     int

	cancelled int
}

func newFakeEnv() *fakeEnv { return &fakeEnv{fixed: map[time.Duration]int{}} }

func (e *fakeEnv) Now() des.Time     { return e.now }
func (e *fakeEnv) QueuedPilots() int { return e.queuedFixed() + e.flexible }
func (e *fakeEnv) queuedFixed() int {
	n := 0
	for _, c := range e.fixed {
		n += c
	}
	return n
}
func (e *fakeEnv) QueuedFixedByLimit() map[time.Duration]int {
	// Live view, per the Env contract: SubmitFixed mutates e.fixed, so
	// the map a policy holds updates as it submits.
	return e.fixed
}
func (e *fakeEnv) QueuedFlexible() int         { return e.flexible }
func (e *fakeEnv) RunningPilots() int          { return e.running }
func (e *fakeEnv) HealthyInvokers() int        { return e.healthy }
func (e *fakeEnv) InvokerUtilization() float64 { return e.util }
func (e *fakeEnv) Invocations() (int, int)     { return e.done, e.n503 }
func (e *fakeEnv) SubmitFixed(l time.Duration, _ int64) {
	e.fixed[l]++
	e.fixedSub = append(e.fixedSub, l)
}
func (e *fakeEnv) SubmitFlexible(_, _ time.Duration) { e.flexible++ }
func (e *fakeEnv) CancelQueued(n int) int {
	// The fake only queues flexible jobs for the policies that cancel.
	if n > e.flexible {
		n = e.flexible
	}
	e.flexible -= n
	e.cancelled += n
	return n
}

func TestFibReplenishFillsEveryLength(t *testing.T) {
	p := NewFib(FibConfig{Lengths: Minutes(2, 4, 8), Depth: 3})
	env := newFakeEnv()
	p.Replenish(env)
	for _, l := range Minutes(2, 4, 8) {
		if env.fixed[l] != 3 {
			t.Errorf("length %v: queued %d, want 3", l, env.fixed[l])
		}
	}
	// Top-up only replaces what left the queue.
	env.fixed[2*time.Minute] = 1
	p.Replenish(env)
	if env.fixed[2*time.Minute] != 3 || env.queuedFixed() != 9 {
		t.Errorf("after top-up: %v", env.fixed)
	}
}

func TestVarReplenishTopsUpToDepth(t *testing.T) {
	p := NewVar(VarConfig{Depth: 10, Min: 2 * time.Minute, Max: time.Hour})
	env := newFakeEnv()
	p.Replenish(env)
	if env.flexible != 10 {
		t.Fatalf("queued %d flexible, want 10", env.flexible)
	}
	env.flexible = 7
	p.Replenish(env)
	if env.flexible != 10 {
		t.Fatalf("after top-up %d, want 10", env.flexible)
	}
}

func TestHybridSplitsDepths(t *testing.T) {
	p := NewHybrid(HybridConfig{
		Fib:      FibConfig{Lengths: Minutes(2, 4), Depth: 10},
		Var:      VarConfig{Depth: 100, Min: 2 * time.Minute, Max: time.Hour},
		FibShare: 0.3,
	})
	if p.fib.cfg.Depth != 3 || p.varDepth != 70 {
		t.Fatalf("depths = %d fib / %d var, want 3 / 70", p.fib.cfg.Depth, p.varDepth)
	}
	env := newFakeEnv()
	p.Replenish(env)
	if env.fixed[2*time.Minute] != 3 || env.fixed[4*time.Minute] != 3 {
		t.Errorf("fixed queues %v, want 3 each", env.fixed)
	}
	if env.flexible != 70 {
		t.Errorf("flexible queue %d, want 70", env.flexible)
	}
	// The halves must not double-count each other.
	p.Replenish(env)
	if env.queuedFixed() != 6 || env.flexible != 70 {
		t.Errorf("second replenish changed queues: %v fixed, %d flexible", env.fixed, env.flexible)
	}
}

func TestLeaseReplenishCountsRunning(t *testing.T) {
	p := NewLease(LeaseConfig{Term: 30 * time.Minute, Target: 20, RenewProb: 1})
	p.Init(dist.NewRand(1))
	env := newFakeEnv()
	env.running = 12
	p.Replenish(env)
	if got := env.fixed[30*time.Minute]; got != 8 {
		t.Fatalf("queued %d leases, want 8 (target 20 - 12 running)", got)
	}
}

func TestLeaseRenewalDecision(t *testing.T) {
	expired := PilotEnd{Reason: EndExpired}

	always := NewLease(LeaseConfig{Term: 30 * time.Minute, Target: 5, RenewProb: 1})
	always.Init(dist.NewRand(1))
	env := newFakeEnv()
	always.PilotEnded(env, expired)
	if env.fixed[30*time.Minute] != 1 || always.Renewed != 1 {
		t.Errorf("RenewProb=1 expiry: %d submitted, %d renewed", env.fixed[30*time.Minute], always.Renewed)
	}

	never := NewLease(LeaseConfig{Term: 30 * time.Minute, Target: 5, RenewProb: 0})
	never.Init(dist.NewRand(1))
	env = newFakeEnv()
	never.PilotEnded(env, expired)
	if env.queuedFixed() != 0 || never.Lapsed != 1 {
		t.Errorf("RenewProb=0 expiry: %d submitted, %d lapsed", env.queuedFixed(), never.Lapsed)
	}

	// Preempted leases are never renewed: the node is gone.
	env = newFakeEnv()
	always.PilotEnded(env, PilotEnd{Reason: EndPreempted})
	if env.queuedFixed() != 0 {
		t.Error("preemption triggered a renewal")
	}
}

func TestAdaptiveGrowsUnderOverload(t *testing.T) {
	p := NewAdaptive()
	env := newFakeEnv()
	start := p.depth

	// A window full of 503 rejections must grow the queue.
	env.done, env.n503 = 100, 50
	p.Replenish(env)
	if p.depth <= start {
		t.Fatalf("depth %d after 50%% 503s, want > %d", p.depth, start)
	}
	if env.flexible != p.depth {
		t.Fatalf("queued %d, want topped up to depth %d", env.flexible, p.depth)
	}

	// Saturated invokers grow it too, even 503-free.
	before := p.depth
	env.done, env.n503 = 200, 50 // no new 503s in this window
	env.healthy, env.util = 10, 0.9
	p.Replenish(env)
	if p.depth <= before {
		t.Errorf("depth %d under util 0.9, want > %d", p.depth, before)
	}
}

func TestAdaptiveShrinksUnderSustainedLowLoad(t *testing.T) {
	p := NewAdaptive()
	env := newFakeEnv()
	env.healthy, env.util = 5, 0.01
	start := p.depth
	for i := 0; i < 5; i++ {
		env.done += 100 // 503-free progress each window
		p.Replenish(env)
	}
	if p.depth >= start {
		t.Fatalf("depth %d after sustained 503-free low load, want < %d", p.depth, start)
	}
	if env.cancelled == 0 {
		t.Error("shrinking never cancelled queued pilots")
	}
	if env.flexible != p.depth {
		t.Errorf("queue %d out of step with depth %d", env.flexible, p.depth)
	}

	// The floor holds under unbounded decay.
	for i := 0; i < 100; i++ {
		env.done += 100
		p.Replenish(env)
	}
	if p.depth != adaptiveMinDepth {
		t.Errorf("depth %d, want clamped at the minimum depth %d", p.depth, adaptiveMinDepth)
	}
}

func TestAdaptiveCeilingHolds(t *testing.T) {
	p := NewAdaptive()
	env := newFakeEnv()
	for i := 0; i < 100; i++ {
		env.done += 100
		env.n503 += 100
		p.Replenish(env)
	}
	if p.depth != adaptiveMaxDepth {
		t.Errorf("depth %d, want clamped at the maximum depth %d", p.depth, adaptiveMaxDepth)
	}
}

func TestAdaptiveHoldsWithoutSignal(t *testing.T) {
	p := NewAdaptive()
	env := newFakeEnv() // no traffic, no healthy invokers
	start := p.depth
	for i := 0; i < 10; i++ {
		p.Replenish(env)
	}
	if p.depth != start {
		t.Errorf("depth drifted %d → %d with no load signal", start, p.depth)
	}
}

func TestRegistryNamesAndConstruction(t *testing.T) {
	want := []string{"adaptive", "fib", "hybrid", "lease", "var"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
		// Instances must be fresh per call (policies are stateful).
		if q := MustNew(name); q == p {
			t.Errorf("New(%q) returned a shared instance", name)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("New(nope) succeeded")
	}
}
