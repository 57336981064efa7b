package policy

import (
	"math"
	"math/rand"
)

// HybridConfig parameterizes the fib+var mix: FibShare scales the fib
// depths, its complement scales the var depth. FibShare 1 degenerates
// to pure fib, 0 to pure var.
type HybridConfig struct {
	Fib FibConfig
	Var VarConfig

	// FibShare ∈ [0, 1] is the fib fraction of the mix.
	FibShare float64
}

// DefaultHybridConfig returns an even split of the paper's two models.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{Fib: DefaultFibConfig(), Var: DefaultVarConfig(), FibShare: 0.5}
}

// Hybrid keeps a configurable mix of fixed-length bags and flexible
// jobs queued: the bags guarantee fine-grained backfill into short idle
// windows while the flexible jobs soak long windows whole.
type Hybrid struct {
	cfg      HybridConfig
	fib      *Fib // the fixed half, at the scaled depth
	varDepth int
}

// NewHybrid builds the hybrid policy.
func NewHybrid(cfg HybridConfig) *Hybrid {
	if cfg.FibShare < 0 || cfg.FibShare > 1 {
		panic("policy: hybrid fib share must be in [0, 1]")
	}
	if len(cfg.Fib.Lengths) == 0 {
		panic("policy: hybrid needs fib job lengths")
	}
	if cfg.Var.Min <= 0 || cfg.Var.Max < cfg.Var.Min {
		panic("policy: hybrid needs 0 < var min ≤ max")
	}
	return &Hybrid{
		cfg: cfg,
		fib: NewFib(FibConfig{
			Lengths: cfg.Fib.Lengths,
			Depth:   int(math.Round(cfg.FibShare * float64(cfg.Fib.Depth))),
		}),
		varDepth: int(math.Round((1 - cfg.FibShare) * float64(cfg.Var.Depth))),
	}
}

// Name implements SupplyPolicy.
func (p *Hybrid) Name() string { return "hybrid" }

// Init implements SupplyPolicy (hybrid draws no randomness).
func (p *Hybrid) Init(*rand.Rand) {}

// Replenish tops both sub-queues up: the fixed half delegates to the
// fib policy (which counts per limit), the flexible jobs count their
// own pending jobs, so the two halves never double-count each other.
func (p *Hybrid) Replenish(env Env) {
	p.fib.Replenish(env)
	for flex := env.QueuedFlexible(); flex < p.varDepth; flex++ {
		env.SubmitFlexible(p.cfg.Var.Min, p.cfg.Var.Max)
	}
}

// PilotStarted implements SupplyPolicy.
func (p *Hybrid) PilotStarted(Env) {}

// PilotEnded implements SupplyPolicy.
func (p *Hybrid) PilotEnded(Env, PilotEnd) {}
