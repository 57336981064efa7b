package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// rankError measures how far off a quantile estimate is in rank space:
// the exact CDF position of the estimate vs the requested p. This is
// the quantity the t-digest bounds (value-space error depends on the
// distribution's local density and can be arbitrarily large at flat
// CDF regions, which is why the tests do not assert on values).
func rankError(s *Sample, estimate, p float64) float64 {
	// The estimate may fall between or tie with observations; bracket
	// its rank by the CDF strictly below it and at it.
	hi := s.CDFAt(estimate)
	lo := s.CDFAt(math.Nextafter(estimate, math.Inf(-1)))
	if p < lo {
		return lo - p
	}
	if p > hi {
		return p - hi
	}
	return 0
}

// centroids returns the digest's centroid count after compaction.
func centroids(d *TDigest) int {
	d.compact()
	return len(d.proc)
}

var quantileProbes = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

func checkRankErrors(t *testing.T, name string, s *Sample, d *TDigest, eps float64) {
	t.Helper()
	for _, p := range quantileProbes {
		got := d.Quantile(p)
		if err := rankError(s, got, p); err > eps {
			t.Errorf("%s: q%.3f = %v, rank error %.5f > ε=%.5f (exact %v)",
				name, p, got, err, eps, s.Quantile(p))
		}
	}
}

func TestTDigestRankErrorWithinEpsilon(t *testing.T) {
	eps := Epsilon(DefaultCompression)
	dists := map[string]func(r *rand.Rand) float64{
		"uniform":   func(r *rand.Rand) float64 { return r.Float64() },
		"normal":    func(r *rand.Rand) float64 { return r.NormFloat64() },
		"lognormal": func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) },
		"exp":       func(r *rand.Rand) float64 { return r.ExpFloat64() },
		"bimodal": func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return r.NormFloat64()
			}
			return 100 + r.NormFloat64()
		},
		"constant": func(r *rand.Rand) float64 { return 42 },
	}
	for name, gen := range dists {
		r := rand.New(rand.NewSource(7))
		var s Sample
		d := NewTDigest(DefaultCompression)
		for i := 0; i < 200_000; i++ {
			x := gen(r)
			s.Add(x)
			d.Add(x)
		}
		checkRankErrors(t, name, &s, d, eps)
		if d.min != s.Min() || d.max != s.Max() {
			t.Errorf("%s: extremes %v/%v, want exact %v/%v", name, d.min, d.max, s.Min(), s.Max())
		}
	}
}

func TestTDigestMergeMatchesWhole(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var s Sample
	whole := NewTDigest(DefaultCompression)
	parts := make([]*TDigest, 8)
	for i := range parts {
		parts[i] = NewTDigest(DefaultCompression)
	}
	for i := 0; i < 100_000; i++ {
		x := r.ExpFloat64() * 10
		s.Add(x)
		whole.Add(x)
		parts[i%len(parts)].Add(x)
	}
	merged := NewTDigest(DefaultCompression)
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Len() != whole.Len() {
		t.Fatalf("merged Len = %d, want %d", merged.Len(), whole.Len())
	}
	if math.Abs(merged.Mean()-whole.Mean()) > 1e-9 {
		t.Errorf("merged mean %v, want %v", merged.Mean(), whole.Mean())
	}
	if merged.min != whole.min || merged.max != whole.max {
		t.Errorf("merged extremes %v/%v, want %v/%v", merged.min, merged.max, whole.min, whole.max)
	}
	// The merged digest must still answer within ε of the exact union
	// (slightly relaxed: merging compacted centroids loses a bit of
	// resolution vs one pass over the raw stream).
	checkRankErrors(t, "merged", &s, merged, 2*Epsilon(DefaultCompression))
}

func TestTDigestWeightedMatchesRepeated(t *testing.T) {
	// AddWeighted(x, w) with integer w must agree with adding x w times.
	r := rand.New(rand.NewSource(3))
	weighted := NewTDigest(100)
	repeated := NewTDigest(100)
	var s Sample
	for i := 0; i < 5000; i++ {
		x := r.NormFloat64()
		w := 1 + r.Intn(5)
		weighted.AddWeighted(x, float64(w))
		for j := 0; j < w; j++ {
			repeated.Add(x)
			s.Add(x)
		}
	}
	for _, p := range quantileProbes {
		a, b := weighted.Quantile(p), repeated.Quantile(p)
		// Both are ε-approximations of the same distribution; compare
		// in rank space against the exact sample.
		if errA := rankError(&s, a, p); errA > Epsilon(100) {
			t.Errorf("weighted q%.3f rank error %.5f > ε", p, errA)
		}
		if errB := rankError(&s, b, p); errB > Epsilon(100) {
			t.Errorf("repeated q%.3f rank error %.5f > ε", p, errB)
		}
	}
	if math.Abs(weighted.Mean()-repeated.Mean()) > 1e-9 {
		t.Errorf("weighted mean %v, repeated %v", weighted.Mean(), repeated.Mean())
	}
	if a, b := weighted.procW+weighted.bufW, repeated.procW+repeated.bufW; math.Abs(a-b) > 1e-9 {
		t.Errorf("weighted weight %v, repeated %v", a, b)
	}
}

func TestTDigestDeterministic(t *testing.T) {
	build := func() *TDigest {
		r := rand.New(rand.NewSource(99))
		d := NewTDigest(DefaultCompression)
		for i := 0; i < 50_000; i++ {
			d.Add(r.NormFloat64())
		}
		return d
	}
	a, b := build(), build()
	for _, p := range quantileProbes {
		if a.Quantile(p) != b.Quantile(p) {
			t.Fatalf("q%.3f differs across identical builds: %v vs %v", p, a.Quantile(p), b.Quantile(p))
		}
	}
	if centroids(a) != centroids(b) {
		t.Fatalf("centroid counts differ: %d vs %d", centroids(a), centroids(b))
	}
}

func TestTDigestSteadyStateZeroAlloc(t *testing.T) {
	d := NewTDigest(DefaultCompression)
	r := rand.New(rand.NewSource(5))
	// Warm past the first few compactions.
	for i := 0; i < 50_000; i++ {
		d.Add(r.NormFloat64())
	}
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	i := 0
	allocs := testing.AllocsPerRun(len(xs), func() {
		d.Add(xs[i%len(xs)])
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Add allocates %v per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		_ = d.Quantile(0.95)
	})
	if allocs != 0 {
		t.Errorf("steady-state Quantile allocates %v per op, want 0", allocs)
	}
}

func TestTDigestMemoryConstantInStreamLength(t *testing.T) {
	small := NewTDigest(DefaultCompression)
	big := NewTDigest(DefaultCompression)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000; i++ {
		small.Add(r.Float64())
	}
	for i := 0; i < 1_000_000; i++ {
		big.Add(r.Float64())
	}
	if small.Footprint() != big.Footprint() {
		t.Errorf("footprint grew with stream length: %d vs %d bytes", small.Footprint(), big.Footprint())
	}
	maxCentroids := 2*int(DefaultCompression) + 8
	if c := centroids(big); c > maxCentroids {
		t.Errorf("centroids = %d, want ≤ %d", c, maxCentroids)
	}
}

func TestTDigestEdgeCases(t *testing.T) {
	d := NewTDigest(50)
	if d.Len() != 0 || d.procW+d.bufW != 0 {
		t.Fatal("fresh digest not empty")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile on empty digest did not panic")
			}
		}()
		d.Quantile(0.5)
	}()
	// Non-finite values and non-positive weights are dropped.
	d.Add(math.NaN())
	d.Add(math.Inf(1))
	d.AddWeighted(1, 0)
	d.AddWeighted(1, -2)
	d.AddWeighted(1, math.NaN())
	if d.Len() != 0 {
		t.Errorf("degenerate adds recorded: Len=%d", d.Len())
	}
	// Single observation: everything collapses to it.
	d.Add(7)
	for _, p := range []float64{0, 0.5, 1} {
		if got := d.Quantile(p); got != 7 {
			t.Errorf("single-obs q%v = %v, want 7", p, got)
		}
	}
	if d.Mean() != 7 {
		t.Errorf("single-obs mean = %v", d.Mean())
	}
	// AddDuration records seconds like Sample.AddDuration.
	d2 := NewTDigest(50)
	d2.AddDuration(1500 * time.Millisecond)
	if got := d2.Quantile(0.5); got != 1.5 {
		t.Errorf("AddDuration median = %v, want 1.5", got)
	}
	// Merging nil/empty is a no-op; merging into empty copies moments.
	d.Merge(nil)
	d.Merge(NewTDigest(50))
	if d.Len() != 1 {
		t.Errorf("no-op merges changed Len to %d", d.Len())
	}
	e := NewTDigest(50)
	e.Merge(d)
	if e.Len() != 1 || e.Mean() != 7 || e.Quantile(0.5) != 7 {
		t.Errorf("merge into empty: Len=%d Mean=%v", e.Len(), e.Mean())
	}
	// Clone is independent.
	c := e.Clone()
	c.Add(100)
	if e.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: %d/%d", e.Len(), c.Len())
	}
}

func TestTDigestQuantileMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	d := NewTDigest(100)
	for i := 0; i < 30_000; i++ {
		d.Add(r.ExpFloat64())
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.001 {
		q := d.Quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%v: %v < %v", p, q, prev)
		}
		prev = q
	}
}

func TestSortCentroids(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(2000)
		cs := make([]centroid, n)
		for i := range cs {
			cs[i] = centroid{mean: float64(r.Intn(50)), weight: r.Float64()}
		}
		sum := 0.0
		for _, c := range cs {
			sum += c.weight
		}
		sortCentroids(cs)
		for i := 1; i < len(cs); i++ {
			if cs[i].mean < cs[i-1].mean {
				t.Fatalf("trial %d: not sorted at %d", trial, i)
			}
		}
		got := 0.0
		for _, c := range cs {
			got += c.weight
		}
		if math.Abs(got-sum) > 1e-9 {
			t.Fatalf("trial %d: weights not preserved", trial)
		}
	}
}
