// Package dist is the stochastic substrate of the HPC-Whisk
// reproduction: a small algebra of one-dimensional distributions plus
// the seeded-RNG plumbing that keeps every simulation bit-for-bit
// reproducible.
//
// Every latency, duration, and size in the emulation is drawn through
// the Dist interface, so the paper's calibrations live in one place
// (calibrations.go) and the simulation code stays free of magic
// numbers. The calibration constructors map to the paper
// (Przybylski et al., "Using Unused: Non-Invasive Dynamic FaaS
// Infrastructure with HPC-Whisk", SC22) as follows:
//
//   - ContendedIdlePeriodSeconds, CalmIdlePeriodSeconds,
//     CalmIdlePeriodTail, SaturationPeriodSeconds — the §I / Fig. 1
//     idle-surface analysis of the Prometheus cluster (mean 9.23 idle
//     nodes, 2-minute median idle periods with ~5% above 23 minutes,
//     10.11% of time with zero idle nodes).
//   - DeclaredWalltimeSeconds, RuntimeFraction — the §I / Fig. 2 job
//     statistics (74k jobs/week, median declared walltime 60 min, only
//     ~5% declaring under 15 min, runtimes well below their limits).
//   - WarmupSeconds — the §IV-B invoker boot-to-healthy time (median
//     12.48 s, p95 26.50 s).
//   - QueryLatencySeconds — the §IV-A Slurm polling latency (a fixed
//     10 s think time realizes the reported 10.3-10.7 s spacing).
//
// Determinism: streams come from NewRand and are forked with Split,
// which derives statistically independent child streams from a parent.
// Components that need several independent streams (e.g. the idle
// process: arrivals, period lengths, regimes, ...) split them all off
// one root up front, so adding draws to one stream never perturbs the
// others and seeded runs stay reproducible bit-for-bit.
//
// The streams are *rand.Rand over a replica of math/rand's additive
// lagged-Fibonacci source (rng.go): the same 607-word state and the
// same draws for every seed, but seeded from a table of Lehmer powers
// instead of a serial walk, with the cooked seeding table recovered at
// init from a standard-library stream. math/rand itself is the oracle:
// TestSourceMatchesMathRand and FuzzSourceMatchesMathRand compare every
// rand.Rand method the simulation calls, draw for draw, against
// rand.NewSource of the same seed.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Dist is a one-dimensional distribution sampled with an explicit RNG
// (no global state — determinism is the point).
type Dist interface {
	// Sample draws one value using r as the randomness source.
	Sample(r *rand.Rand) float64
}

// Seconds draws from d and converts the value to a time.Duration,
// treating the sample as seconds. Negative draws clamp to zero so the
// result is always safe to pass to des.Sim.After.
func Seconds(d Dist, r *rand.Rand) time.Duration {
	s := d.Sample(r)
	if s <= 0 {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

// Constant is a degenerate distribution: every sample equals Value.
type Constant struct {
	Value float64
}

// Sample implements Dist.
func (c Constant) Sample(*rand.Rand) float64 { return c.Value }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) float64 {
	return u.Lo + r.Float64()*(u.Hi-u.Lo)
}

// Lognormal is the log-normal distribution: exp(N(Mu, Sigma²)).
// Its median is exp(Mu) and its p-quantile exp(Mu + Sigma·probit(p)).
type Lognormal struct {
	Mu, Sigma float64
}

// Sample implements Dist.
func (l Lognormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Pareto is the type-I Pareto distribution with scale Xm (the minimum)
// and shape Alpha: P(X > x) = (Xm/x)^Alpha for x ≥ Xm. It models the
// fat tails of the calm-regime idle periods (§I).
type Pareto struct {
	Xm, Alpha float64
}

// Sample implements Dist (inverse-CDF on a (0,1] uniform so the draw
// is always finite).
func (p Pareto) Sample(r *rand.Rand) float64 {
	u := 1 - r.Float64() // (0, 1]
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Clamped restricts another distribution to [Min, Max] by projecting
// out-of-range samples onto the nearest bound (censoring, not
// rejection — one draw per sample keeps streams aligned).
type Clamped struct {
	D        Dist
	Min, Max float64
}

// Sample implements Dist.
func (c Clamped) Sample(r *rand.Rand) float64 {
	v := c.D.Sample(r)
	if v < c.Min {
		return c.Min
	}
	if v > c.Max {
		return c.Max
	}
	return v
}

// Discrete is a finite distribution over explicit values. Zero value
// is not usable; build one with NewDiscrete.
type Discrete struct {
	values []float64
	cum    []float64 // cumulative weights, cum[len-1] == total
}

// NewDiscrete builds a discrete distribution drawing values[i] with
// probability weights[i]/sum(weights). It panics on mismatched or
// empty inputs, negative weights, or an all-zero weight vector.
func NewDiscrete(values, weights []float64) *Discrete {
	if len(values) == 0 || len(values) != len(weights) {
		panic(fmt.Sprintf("dist: discrete needs matching non-empty values/weights, got %d/%d",
			len(values), len(weights)))
	}
	d := &Discrete{
		values: append([]float64(nil), values...),
		cum:    make([]float64, len(weights)),
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("dist: negative discrete weight %v at %d", w, i))
		}
		total += w
		d.cum[i] = total
	}
	if total <= 0 {
		panic("dist: discrete weights sum to zero")
	}
	return d
}

// Sample implements Dist.
func (d *Discrete) Sample(r *rand.Rand) float64 {
	u := r.Float64() * d.cum[len(d.cum)-1]
	i := sort.SearchFloat64s(d.cum, u)
	if i >= len(d.values) { // u == total, probability ~0 edge
		i = len(d.values) - 1
	}
	return d.values[i]
}

// Len returns the number of support points.
func (d *Discrete) Len() int { return len(d.values) }

// Weighted pairs a mixture component with its (unnormalized) weight.
type Weighted struct {
	W float64
	D Dist
}

// Mixture draws from one of several component distributions with
// probability proportional to its weight. Build with NewMixture.
type Mixture struct {
	parts []Weighted
	total float64
}

// NewMixture builds a mixture distribution. Weights need not sum to 1;
// they are normalized. It panics on empty input, a nil component, a
// negative weight, or an all-zero weight vector.
func NewMixture(parts ...Weighted) *Mixture {
	if len(parts) == 0 {
		panic("dist: empty mixture")
	}
	m := &Mixture{parts: append([]Weighted(nil), parts...)}
	for i, p := range m.parts {
		if p.D == nil {
			panic(fmt.Sprintf("dist: nil mixture component at %d", i))
		}
		if p.W < 0 || math.IsNaN(p.W) {
			panic(fmt.Sprintf("dist: negative mixture weight %v at %d", p.W, i))
		}
		m.total += p.W
	}
	if m.total <= 0 {
		panic("dist: mixture weights sum to zero")
	}
	return m
}

// Sample implements Dist. It always consumes exactly one uniform for
// the component choice plus the chosen component's draws, keeping
// streams aligned across runs.
func (m *Mixture) Sample(r *rand.Rand) float64 {
	u := r.Float64() * m.total
	acc := 0.0
	for i, p := range m.parts {
		acc += p.W
		if u < acc || i == len(m.parts)-1 {
			return p.D.Sample(r)
		}
	}
	panic("unreachable")
}
