package dist

import (
	"math"
	"math/rand"
	"time"
)

// samplerKind selects the devirtualized fast path of a Sampler.
type samplerKind uint8

const (
	kindGeneric samplerKind = iota
	kindConstant
	kindUniform
	kindLognormal
)

// Sampler binds a distribution to a random stream once, so hot paths
// draw without passing (Dist, *rand.Rand) pairs around or re-reading
// interface-typed config fields per draw. For the shapes that dominate
// the request path (Uniform, Lognormal, Constant) the constructor
// unpacks the concrete parameters and Sample runs them inline, skipping
// the interface dispatch; every other shape falls back to the Dist
// method. The draws are bit-identical to d.Sample(r) in either case —
// the fast paths are verbatim copies of the Sample bodies — so swapping
// a call site onto a Sampler never perturbs a seeded stream.
//
// The zero Sampler is not usable; build one with NewSampler. A Sampler
// is a value: copy it freely, but all copies share the underlying
// stream.
type Sampler struct {
	r    *rand.Rand
	d    Dist
	u    Uniform
	l    Lognormal
	c    float64
	kind samplerKind
}

// NewSampler binds d to the stream r.
func NewSampler(d Dist, r *rand.Rand) Sampler {
	s := Sampler{r: r, d: d}
	switch v := d.(type) {
	case Constant:
		s.kind = kindConstant
		s.c = v.Value
	case Uniform:
		s.kind = kindUniform
		s.u = v
	case Lognormal:
		s.kind = kindLognormal
		s.l = v
	}
	return s
}

// Sample draws one value, exactly as Dist.Sample would on the bound
// stream.
func (s *Sampler) Sample() float64 {
	switch s.kind {
	case kindConstant:
		return s.c
	case kindUniform:
		return s.u.Lo + s.r.Float64()*(s.u.Hi-s.u.Lo)
	case kindLognormal:
		return math.Exp(s.l.Mu + s.l.Sigma*s.r.NormFloat64())
	default:
		return s.d.Sample(s.r)
	}
}

// Seconds draws one value and converts it like the package-level
// Seconds helper: the sample is seconds, negatives clamp to zero.
func (s *Sampler) Seconds() time.Duration {
	v := s.Sample()
	if v <= 0 {
		return 0
	}
	return time.Duration(v * float64(time.Second))
}
