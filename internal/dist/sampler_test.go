package dist

import (
	"math"
	"testing"
)

// TestSamplerMatchesDistBitForBit is the load-bearing property of the
// Sampler fast paths: for every shape (devirtualized or generic), a
// Sampler over a seeded stream must reproduce the exact draw sequence
// of Dist.Sample over an identically seeded stream. The request-path
// refactor swapped its call sites onto Samplers relying on this.
func TestSamplerMatchesDistBitForBit(t *testing.T) {
	dists := map[string]Dist{
		"constant":  Constant{Value: 3.25},
		"uniform":   Uniform{Lo: 0.010, Hi: 0.040},
		"lognormal": Lognormal{Mu: math.Log(0.62), Sigma: 0.30},
		"pareto":    Pareto{Xm: 2, Alpha: 1.65}, // generic fallback path
		"clamped":   Clamped{D: Lognormal{Mu: 1, Sigma: 2}, Min: 0.5, Max: 9},
	}
	for name, d := range dists {
		t.Run(name, func(t *testing.T) {
			ref := NewRand(42)
			s := NewSampler(d, NewRand(42))
			for i := 0; i < 10_000; i++ {
				want := d.Sample(ref)
				if got := s.Sample(); got != want {
					t.Fatalf("draw %d: sampler %v != dist %v", i, got, want)
				}
			}
		})
	}
}

func TestSamplerSecondsMatchesSeconds(t *testing.T) {
	d := Lognormal{Mu: -3, Sigma: 2} // occasionally tiny, conversion-sensitive
	ref := NewRand(7)
	s := NewSampler(d, NewRand(7))
	for i := 0; i < 10_000; i++ {
		want := Seconds(d, ref)
		if got := s.Seconds(); got != want {
			t.Fatalf("draw %d: sampler %v != Seconds %v", i, got, want)
		}
	}
}

func TestSamplerSecondsClampsNegative(t *testing.T) {
	s := NewSampler(Constant{Value: -1}, NewRand(1))
	if got := s.Seconds(); got != 0 {
		t.Errorf("negative sample should clamp to 0, got %v", got)
	}
}

// BenchmarkSampler* document why the request path caches Samplers: the
// devirtualized draw avoids the interface call per sample.
func BenchmarkSamplerUniform(b *testing.B) {
	b.ReportAllocs()
	s := NewSampler(Uniform{Lo: 0.01, Hi: 0.04}, NewRand(1))
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += s.Sample()
	}
	_ = acc
}

func BenchmarkDistUniform(b *testing.B) {
	b.ReportAllocs()
	var d Dist = Uniform{Lo: 0.01, Hi: 0.04}
	r := NewRand(1)
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += d.Sample(r)
	}
	_ = acc
}
