package policy

import (
	"math/rand"
	"time"
)

// AdaptiveConfig parameterizes the feedback-controlled harvesting
// policy: queue depth grows under overload (503 rejections, saturated
// invokers) and shrinks under sustained 503-free low load, within
// [MinDepth, MaxDepth].
type AdaptiveConfig struct {
	// Min and Max shape the flexible pilots the policy submits
	// (--time-min/--time, as the var model).
	Min, Max time.Duration

	// Depth bounds and the starting depth.
	MinDepth, MaxDepth, StartDepth int

	// Grow and Shrink are the per-decision depth steps. Growth is
	// deliberately larger than shrinkage (fast attack, slow decay): a
	// 503 burst means user-visible failures, an over-deep queue only
	// means cancelled pilots.
	Grow, Shrink int

	// UtilHigh and UtilLow are the invoker-utilization thresholds: busy
	// share above UtilHigh grows the queue, below UtilLow (with no 503s
	// in the window) shrinks it.
	UtilHigh, UtilLow float64

	// Rate503High is the 503 share over one replenishment window that
	// forces growth regardless of utilization.
	Rate503High float64
}

// DefaultAdaptiveConfig returns a tractable default controller.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Min:         2 * time.Minute,
		Max:         120 * time.Minute,
		MinDepth:    4,
		MaxDepth:    200,
		StartDepth:  25,
		Grow:        8,
		Shrink:      2,
		UtilHigh:    0.50,
		UtilLow:     0.10,
		Rate503High: 0.01,
	}
}

// Adaptive sizes the pilot queue from observed demand, the way
// harvesting systems size disaggregated pools: each replenishment tick
// it compares the 503 share and invoker utilization of the last window
// against its thresholds and steps the depth.
type Adaptive struct {
	cfg   AdaptiveConfig
	depth int

	lastDone, last503 int

	// Decision counters (observability for experiments and tests).
	Grown, Shrunk int
}

// NewAdaptive builds the adaptive-depth policy.
func NewAdaptive(cfg AdaptiveConfig) *Adaptive {
	if cfg.MinDepth < 0 || cfg.MaxDepth < cfg.MinDepth {
		panic("policy: adaptive needs 0 ≤ MinDepth ≤ MaxDepth")
	}
	p := &Adaptive{cfg: cfg, depth: cfg.StartDepth}
	if p.depth < cfg.MinDepth {
		p.depth = cfg.MinDepth
	}
	if p.depth > cfg.MaxDepth {
		p.depth = cfg.MaxDepth
	}
	return p
}

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
	case rate503 >= p.cfg.Rate503High && d503 > 0:
		p.depth += p.cfg.Grow
		p.Grown++
	case util > p.cfg.UtilHigh:
		p.depth += p.cfg.Grow
		p.Grown++
	case d503 == 0 && util < p.cfg.UtilLow && env.HealthyInvokers() > 0:
		p.depth -= p.cfg.Shrink
		p.Shrunk++
	}
	if p.depth < p.cfg.MinDepth {
		p.depth = p.cfg.MinDepth
	}
	if p.depth > p.cfg.MaxDepth {
		p.depth = p.cfg.MaxDepth
	}

	queued := env.QueuedPilots()
	if queued > p.depth {
		queued -= env.CancelQueued(queued - p.depth)
	}
	for ; queued < p.depth; queued++ {
		env.SubmitFlexible(p.cfg.Min, p.cfg.Max)
	}
}

// PilotStarted implements SupplyPolicy.
func (p *Adaptive) PilotStarted(Env) {}

// PilotEnded implements SupplyPolicy.
func (p *Adaptive) PilotEnded(Env, PilotEnd) {}
