package policy

import (
	"math/rand"
	"time"
)

// The adaptive controller's settings: the queue depth grows under
// overload (503 rejections, saturated invokers) and shrinks under
// sustained 503-free low load, within [adaptiveMinDepth,
// adaptiveMaxDepth].
const (
	// adaptiveMin and adaptiveMax shape the flexible pilots the policy
	// submits (--time-min/--time, as the var model).
	adaptiveMin = 2 * time.Minute
	adaptiveMax = 120 * time.Minute

	// Depth bounds and the starting depth.
	adaptiveMinDepth   = 4
	adaptiveMaxDepth   = 200
	adaptiveStartDepth = 25

	// adaptiveGrow and adaptiveShrink are the per-decision depth steps.
	// Growth is deliberately larger than shrinkage (fast attack, slow
	// decay): a 503 burst means user-visible failures, an over-deep
	// queue only means cancelled pilots.
	adaptiveGrow   = 8
	adaptiveShrink = 2

	// adaptiveUtilHigh and adaptiveUtilLow are the invoker-utilization
	// thresholds: busy share above adaptiveUtilHigh grows the queue,
	// below adaptiveUtilLow (with no 503s in the window) shrinks it.
	adaptiveUtilHigh = 0.50
	adaptiveUtilLow  = 0.10

	// adaptiveRate503High is the 503 share over one replenishment
	// window that forces growth regardless of utilization.
	adaptiveRate503High = 0.01
)

// Adaptive sizes the pilot queue from observed demand, the way
// harvesting systems size disaggregated pools: each replenishment tick
// it compares the 503 share and invoker utilization of the last window
// against its thresholds and steps the depth.
type Adaptive struct {
	depth int

	lastDone, last503 int
}

// NewAdaptive builds the adaptive-depth policy.
func NewAdaptive() *Adaptive { return &Adaptive{depth: adaptiveStartDepth} }

// Name implements SupplyPolicy.
func (p *Adaptive) Name() string { return "adaptive" }

// Init implements SupplyPolicy (the controller is deterministic).
func (p *Adaptive) Init(*rand.Rand) {}

// Replenish runs one control step, then tops the queue up to (or
// cancels it down to) the new depth.
func (p *Adaptive) Replenish(env Env) {
	done, n503 := env.Invocations()
	dDone, d503 := done-p.lastDone, n503-p.last503
	p.lastDone, p.last503 = done, n503

	rate503 := 0.0
	if dDone > 0 {
		rate503 = float64(d503) / float64(dDone)
	}
	util := env.InvokerUtilization()

	switch {
	case rate503 >= adaptiveRate503High && d503 > 0:
		p.depth += adaptiveGrow
	case util > adaptiveUtilHigh:
		p.depth += adaptiveGrow
	case d503 == 0 && util < adaptiveUtilLow && env.HealthyInvokers() > 0:
		p.depth -= adaptiveShrink
	}
	if p.depth < adaptiveMinDepth {
		p.depth = adaptiveMinDepth
	}
	if p.depth > adaptiveMaxDepth {
		p.depth = adaptiveMaxDepth
	}

	queued := env.QueuedPilots()
	if queued > p.depth {
		queued -= env.CancelQueued(queued - p.depth)
	}
	for ; queued < p.depth; queued++ {
		env.SubmitFlexible(adaptiveMin, adaptiveMax)
	}
}

// PilotStarted implements SupplyPolicy.
func (p *Adaptive) PilotStarted(Env) {}

// PilotEnded implements SupplyPolicy.
func (p *Adaptive) PilotEnded(Env, PilotEnd) {}
