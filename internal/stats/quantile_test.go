package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refQuantile is the read Quantile must match bit for bit: index a
// copy sorted with sort.Float64s and interpolate between neighbours.
func refQuantile(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// quantileShapes are the inputs selection must get right: random,
// heavily duplicated, presorted either way, organ-pipe, constant, two
// alternating values, and Musser's median-of-three killer.
var quantileShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"uniform", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		return xs
	}},
	{"dup4", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(4))
		}
		return xs
	}},
	{"sorted", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		sort.Float64s(xs)
		return xs
	}},
	{"reversed", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		return xs
	}},
	{"organ-pipe", func(_ *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(min(i, n-1-i))
		}
		return xs
	}},
	{"all-equal", func(_ *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 0.75
		}
		return xs
	}},
	{"alternating", func(_ *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i % 2)
		}
		return xs
	}},
	{"m3-killer", func(_ *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		k := n / 2
		for i := 1; i <= k; i++ {
			if i%2 == 1 {
				xs[i-1] = float64(i)
			} else {
				xs[i-1] = float64(k + i - 1)
			}
			xs[k+i-1] = float64(2 * i)
		}
		if n%2 == 1 {
			xs[n-1] = float64(n)
		}
		return xs
	}},
}

// readSequence is the reads of a run's report on one buffer: the
// median, the tails, the median again and the extremes, each on the
// buffer the reads before it reordered.
var readSequence = []float64{0.5, 0.95, 0.99, 0.5, 0, 1}

// TestQuantileMatchesSortedReference drives random interleavings of
// Add, Quantile, Median, Min, Max and CDFAt over every shape at sizes
// 1–2,049, a quarter of the seeds with NaN and ±Inf mixed in, and reads
// readSequence on the fresh buffer and after every Add. Every answer
// must have the bits of the sorted reference, and no query may change
// the multiset the buffer holds.
func TestQuantileMatchesSortedReference(t *testing.T) {
	seeds := int64(640)
	if testing.Short() {
		seeds = 160 // the CI race gate
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	readAll := func(s *Sample, sorted []float64, seed int64, shape string) {
		for _, p := range readSequence {
			if got, want := s.Quantile(p), refQuantile(sorted, p); !sameBits(got, want) {
				t.Fatalf("seed %d %s n=%d: Quantile(%v) in %v = %v, want %v", seed, shape, len(sorted), p, readSequence, got, want)
			}
		}
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := quantileShapes[int(seed)%len(quantileShapes)]
		n := 1 + rng.Intn(2049)
		if seed%2 == 0 {
			n = 1 + rng.Intn(40)
		}
		gen := func(n int) []float64 {
			xs := shape.gen(rng, n)
			if seed%4 == 3 {
				for range 1 + n/8 {
					xs[rng.Intn(n)] = specials[rng.Intn(len(specials))]
				}
			}
			return xs
		}
		var s Sample
		ref := gen(n)
		for _, x := range ref {
			s.Add(x)
		}
		sorted := sortedCopy(ref)
		readAll(&s, sorted, seed, shape.name)
		checkMultiset(t, &s, sorted, seed, shape.name, "the read sequence")
		for op := 0; op < 24; op++ {
			what := ""
			switch r := rng.Intn(10); {
			case r < 5:
				p := quantileProbe(rng, len(ref))
				what = "Quantile"
				if got, want := s.Quantile(p), refQuantile(sorted, p); !sameBits(got, want) {
					t.Fatalf("seed %d %s n=%d: Quantile(%v) = %v, want %v", seed, shape.name, len(ref), p, got, want)
				}
			case r < 6:
				what = "Median"
				if got, want := s.Median(), refQuantile(sorted, 0.5); !sameBits(got, want) {
					t.Fatalf("seed %d %s n=%d: Median = %v, want %v", seed, shape.name, len(ref), got, want)
				}
			case r < 8:
				what = "Add"
				for _, x := range gen(1 + rng.Intn(8)) {
					s.Add(x)
					ref = append(ref, x)
				}
				sorted = sortedCopy(ref)
				readAll(&s, sorted, seed, shape.name)
			case r < 9:
				what = "Min/Max"
				if got, want := s.Min(), sorted[0]; !sameBits(got, want) {
					t.Fatalf("seed %d %s: Min = %v, want %v", seed, shape.name, got, want)
				}
				if got, want := s.Max(), sorted[len(sorted)-1]; !sameBits(got, want) {
					t.Fatalf("seed %d %s: Max = %v, want %v", seed, shape.name, got, want)
				}
			default:
				what = "CDFAt"
				s.CDFAt(ref[rng.Intn(len(ref))])
			}
			checkMultiset(t, &s, sorted, seed, shape.name, what)
		}
	}

	// Sizes that straddle the block length, each read fresh, then read
	// sorted, then grown by more than a block, then read again. The fresh
	// reads select over the parked blocks in place; Min and Max gather
	// them, and the first Add after that parks the gathered buffer, a
	// block longer than sampleBlock once anything was parked before.
	// Mean must sum the current sequence in order every time.
	sizes := []int{sampleBlock - 1, sampleBlock, sampleBlock + 1, 3*sampleBlock + 7}
	if testing.Short() {
		sizes = []int{sampleBlock + 1, 3*sampleBlock + 7}
	}
	for i, n := range sizes {
		for _, shape := range []int{0, 1 + i%(len(quantileShapes)-1)} {
			name := quantileShapes[shape].name
			rng := rand.New(rand.NewSource(int64(i)))
			ref := quantileShapes[shape].gen(rng, n)
			var s Sample
			for _, x := range ref {
				s.Add(x)
			}
			parked := (n - 1) / sampleBlock
			if len(s.parked) != parked {
				t.Fatalf("%s n=%d: %d parked blocks, want %d", name, n, len(s.parked), parked)
			}
			checkBlocks(t, &s, ref, true, name)
			sorted := sortedCopy(ref)
			readAll(&s, sorted, int64(i), name)
			if len(s.parked) != parked {
				t.Fatalf("%s n=%d: %d parked blocks after the fresh reads, want %d: a read gathered", name, n, len(s.parked), parked)
			}
			checkBlocks(t, &s, ref, false, name)
			if got, want := s.Min(), sorted[0]; !sameBits(got, want) {
				t.Fatalf("%s n=%d: Min = %v, want %v", name, n, got, want)
			}
			if got, want := s.Max(), sorted[n-1]; !sameBits(got, want) {
				t.Fatalf("%s n=%d: Max = %v, want %v", name, n, got, want)
			}
			more := quantileShapes[0].gen(rng, sampleBlock+3)
			for _, x := range more {
				s.Add(x)
			}
			ref = append(ref, more...)
			if first := max(n, sampleBlock); len(s.parked) == 0 || len(s.parked[0]) != first {
				t.Fatalf("%s n=%d: first parked block after a sorted read and an Add past a block is not %d values long", name, n, first)
			}
			checkBlocks(t, &s, ref, false, name)
			sorted = sortedCopy(ref)
			readAll(&s, sorted, int64(i), name)
			checkBlocks(t, &s, ref, false, name)
			checkMultiset(t, &s, sorted, int64(i), name, "a read, sorted read, Add, read sequence")
		}
	}
}

// TestSampleReadsAllocateNothing: Quantile, Median and Mean read a
// sample of three parked blocks and a buffer in place, without
// gathering them.
func TestSampleReadsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Sample
	for range 3*sampleBlock + 100 {
		s.Add(rng.ExpFloat64())
	}
	if len(s.parked) != 3 {
		t.Fatalf("%d parked blocks, want 3", len(s.parked))
	}
	reads := []struct {
		name string
		read func()
	}{
		{"Quantile", func() { s.Quantile(0.99) }},
		{"Median", func() { s.Median() }},
		{"Mean", func() { s.Mean() }},
	}
	// Each run reads the blocks as Add left them, so a read that gathers
	// allocates in every run.
	blocks, tail := s.parked, s.xs
	for _, r := range reads {
		allocs := testing.AllocsPerRun(10, func() {
			s.parked, s.xs, s.sorted = blocks, tail, false
			r.read()
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v times per read, want 0", r.name, allocs)
		}
	}
}

// checkBlocks checks a buffer's blocks: Len and Footprint count every
// block, and Mean has the bits of summing a contiguous copy of the
// blocks front to back. On a fresh buffer, which no read has reordered,
// that copy is the reference in insertion order.
func checkBlocks(t *testing.T, s *Sample, ref []float64, fresh bool, shape string) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", shape, s.Len(), len(ref))
	}
	if s.Footprint() < 8*s.Len() {
		t.Fatalf("%s n=%d: Footprint = %d B, below 8·Len", shape, len(ref), s.Footprint())
	}
	flat := contents(s)
	for i := range flat {
		if fresh && !sameBits(flat[i], ref[i]) {
			t.Fatalf("%s n=%d: buffer[%d] = %v, want value %d as added, %v", shape, len(ref), i, flat[i], i, ref[i])
		}
	}
	want := 0.0
	for _, x := range flat {
		want += x
	}
	want /= float64(len(flat))
	if got := s.Mean(); !sameBits(got, want) {
		t.Fatalf("%s n=%d: Mean = %v, want the in-order sum's %v", shape, len(ref), got, want)
	}
}

// contents returns a contiguous copy of the buffer: the parked blocks,
// then the observations after them.
func contents(s *Sample) []float64 {
	return slices.Concat(append(slices.Clone(s.parked), s.xs)...)
}

// quantileProbe draws p from the probabilities that matter: the ends,
// the paper's median and tails, exact ranks k/(n−1), their float
// neighbours, and uniform values.
func quantileProbe(rng *rand.Rand, n int) float64 {
	var p float64
	switch r := rng.Intn(4); {
	case r == 0:
		p = []float64{0, 1, 0.5, 0.95, 0.99}[rng.Intn(5)]
	case r == 1 && n > 1:
		p = float64(rng.Intn(n)) / float64(n-1)
	default:
		p = rng.Float64()
	}
	switch rng.Intn(3) {
	case 0:
		p = math.Nextafter(p, math.Inf(-1))
	case 1:
		p = math.Nextafter(p, math.Inf(1))
	}
	return p
}

func sortedCopy(xs []float64) []float64 {
	c := slices.Clone(xs)
	sort.Float64s(c)
	return c
}

// checkMultiset fails unless the buffer holds the sorted reference's
// values, in any order.
func checkMultiset(t *testing.T, s *Sample, want []float64, seed int64, shape, after string) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("seed %d %s: Len = %d after %s, want %d", seed, shape, s.Len(), after, len(want))
	}
	got := sortedCopy(contents(s))
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("seed %d %s: buffer's multiset changed after %s: sorted[%d] = %v, want %v", seed, shape, after, i, got[i], want[i])
		}
	}
}

// BenchmarkSampleQuantiles is the federated reduction's read of a
// buffered latency sample: 2^20 latencies added one by one, so they span
// 32 blocks as a run's samples do, refilled unsorted into those blocks
// each op, then the median and the 95th and 99th percentiles.
// Allocation-free: the reads select over the blocks in place.
func BenchmarkSampleQuantiles(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lat := make([]float64, 1<<20)
	var s Sample
	for i := range lat {
		lat[i] = 0.4 + rng.ExpFloat64()*0.6
		s.Add(lat[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		rest := lat
		for _, blk := range s.parked {
			rest = rest[copy(blk, rest):]
		}
		copy(s.xs, rest)
		s.sorted = false
		sum += s.Median() + s.Quantile(0.95) + s.Quantile(0.99)
	}
	if sum <= 0 {
		b.Fatal("impossible")
	}
}
