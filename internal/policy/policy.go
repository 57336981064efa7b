// Package policy makes the pilot-job supply decision of §III-D a
// first-class, swappable concern. The paper evaluates exactly two
// supply models — fib (bags of fixed-length jobs) and var (flexible
// jobs sized by Slurm) — but the design space is much wider: rFaaS
// acquires compute through fixed-term renewable leases, and harvesting
// systems size their pool adaptively from observed demand. A
// SupplyPolicy decides what pilots to keep queued and reacts to pilot
// lifecycle events, all on the virtual clock and (when it needs
// randomness) on its own deterministic dist.NewRand stream, so every
// policy run stays a pure function of its seed.
//
// The package ships five registered policies:
//
//   - fib: the paper's bag-of-tasks model (Table I set A1, depth 10).
//   - var: the paper's flexible-job model (100 × 2 min–2 h).
//   - adaptive: feedback-controlled depth from invoker utilization and
//     the 503 rate.
//   - lease: fixed-term renewable pilots, rFaaS-style.
//   - hybrid: a configurable fib+var split.
//
// The core.PilotManager is the policy-agnostic engine: it owns the
// invoker lifecycle (warm-up, registration, hand-off) and calls the
// policy at every replenishment tick and pilot start/end.
package policy

import (
	"math/rand"
	"time"

	"repro/internal/des"
)

// Minutes builds a duration slice from minute values.
func Minutes(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Minute
	}
	return out
}

// SetA1 is the job-length set the paper selected for the fib model
// (Table I, set A1).
var SetA1 = Minutes(2, 4, 6, 8, 14, 22, 34, 56, 90)

// EndReason classifies why a started pilot ended.
type EndReason uint8

// End reasons: EndPreempted when prime load reclaimed the node,
// EndExpired when the pilot ran out its granted time limit (a lease
// expiry, from the lease policy's perspective), EndOther for every
// remaining exit path.
const (
	EndPreempted EndReason = iota
	EndExpired
	EndOther
)

// String implements fmt.Stringer.
func (r EndReason) String() string {
	switch r {
	case EndPreempted:
		return "preempted"
	case EndExpired:
		return "expired"
	default:
		return "other"
	}
}

// PilotEnd describes one ended pilot to the policy.
type PilotEnd struct {
	Reason EndReason
}

// Env is the manager-provided view of the deployment a policy observes
// and acts through. Observation methods read the live Slurm queue and
// OpenWhisk controller; submission methods enqueue pilot jobs owned by
// the calling manager. All methods are safe at any decision point
// (replenishment ticks and pilot start/end events).
type Env interface {
	// Now is the current virtual time.
	Now() des.Time

	// QueuedPilots is the number of pending pilot jobs (fixed and
	// flexible).
	QueuedPilots() int

	// QueuedFixedByLimit counts the pending fixed-length pilots per
	// time limit. The map is a live read-only view of the scheduler's
	// maintained histogram (O(1), allocation-free): callers must not
	// mutate it, and submissions made through this Env update it
	// immediately — a replenish loop that submits until a count reaches
	// its target can read the view directly.
	QueuedFixedByLimit() map[time.Duration]int

	// QueuedFlexible is the number of pending flexible pilots.
	QueuedFlexible() int

	// RunningPilots is the number of started, not-yet-ended pilots.
	RunningPilots() int

	// HealthyInvokers is the number of registered healthy invokers.
	HealthyInvokers() int

	// InvokerUtilization is the busy share of healthy invoker capacity
	// (in-flight executions over total concurrency slots), in [0, 1];
	// 0 with no healthy invoker.
	InvokerUtilization() float64

	// Invocations returns the cumulative completed invocation count and
	// how many of those were rejected with 503 (no healthy invoker).
	Invocations() (completed, rejected503 int)

	// SubmitFixed enqueues one fixed-length pilot with the given Slurm
	// priority (the fib model uses priority ∝ length).
	SubmitFixed(limit time.Duration, priority int64)

	// SubmitFlexible enqueues one flexible pilot Slurm sizes between
	// min and max (--time-min/--time).
	SubmitFlexible(min, max time.Duration)

	// CancelQueued cancels up to n of this manager's pending pilots,
	// newest first, and returns how many were cancelled.
	CancelQueued(n int) int
}

// SupplyPolicy decides what pilot jobs to keep in the Slurm queue. One
// policy value belongs to one manager; implementations may keep state
// between calls. All calls happen on the virtual clock, sequentially.
type SupplyPolicy interface {
	// Name is the registry key; submitted pilot jobs are named
	// "hpcwhisk-<name>".
	Name() string

	// Init hands the policy its private deterministic random stream
	// before the first decision. Policies that draw no randomness may
	// ignore it.
	Init(rng *rand.Rand)

	// Replenish is the periodic queue top-up tick (every 15 s in the
	// paper) and also runs once at manager start.
	Replenish(env Env)

	// PilotStarted observes a pilot job starting on a node.
	PilotStarted(env Env)

	// PilotEnded observes a started pilot ending (preemption, time
	// limit, or any other exit). Queue-cancelled pilots that never
	// started are not reported.
	PilotEnded(env Env, end PilotEnd)
}
