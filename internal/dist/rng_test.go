package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sourceEdgeSeeds are the seeds where math/rand's seed reduction has
// edges: zero (replaced by 89482311), ±1, the Lehmer modulus 2^31−1
// and its multiples (which reduce to zero), negative seeds (which
// wrap) and the int64 extremes.
var sourceEdgeSeeds = []int64{
	0, 1, -1, lehmerMod, -lehmerMod, 2 * lehmerMod, 89482311,
	math.MinInt64, math.MaxInt64,
}

// drawsPerMethod is how many draws each rand.Rand method takes per
// seed in the replica checks.
const drawsPerMethod = 10000

// matchMathRand drives a replica stream and a math/rand stream of the
// same seed through every rand.Rand method the simulation calls
// (Float64, NormFloat64, ExpFloat64, Int63, Int63n, Intn, Shuffle) and
// Uint64, drawsPerMethod times each, interleaved so every method reads
// the state at every offset. It then reseeds both with a derived seed
// and compares again, so Seed on a used source is covered too. It
// returns a description of the first difference, or "".
func matchMathRand(seed int64) string {
	got, want := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
	for round, s := range []int64{seed, seed ^ 0x5bd1e995} {
		if round > 0 {
			got.Seed(s)
			want.Seed(s)
		}
		if d := compareDraws(got, want); d != "" {
			return fmt.Sprintf("seed %d (round %d): %s", s, round, d)
		}
	}
	return ""
}

// bounds are the Int63n and Intn arguments: powers of two (the masked
// path), small and large odd values (the rejection path), and values
// past 2^31 (Intn's 63-bit path).
var bounds = []int64{1, 2, 3, 10, 1 << 20, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<40 + 7, math.MaxInt64}

func compareDraws(got, want *rand.Rand) string {
	var ga, wa [9]int
	for i := 0; i < drawsPerMethod; i++ {
		n := bounds[i%len(bounds)]
		if g, w := got.Float64(), want.Float64(); g != w {
			return fmt.Sprintf("draw %d: Float64 %v, want %v", i, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			return fmt.Sprintf("draw %d: NormFloat64 %v, want %v", i, g, w)
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
			return fmt.Sprintf("draw %d: ExpFloat64 %v, want %v", i, g, w)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			return fmt.Sprintf("draw %d: Int63 %d, want %d", i, g, w)
		}
		if g, w := got.Int63n(n), want.Int63n(n); g != w {
			return fmt.Sprintf("draw %d: Int63n(%d) %d, want %d", i, n, g, w)
		}
		if g, w := got.Intn(int(n)), want.Intn(int(n)); g != w {
			return fmt.Sprintf("draw %d: Intn(%d) %d, want %d", i, n, g, w)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			return fmt.Sprintf("draw %d: Uint64 %d, want %d", i, g, w)
		}
		k := 1 + i%len(ga)
		for j := range k {
			ga[j], wa[j] = j, j
		}
		got.Shuffle(k, func(a, b int) { ga[a], ga[b] = ga[b], ga[a] })
		want.Shuffle(k, func(a, b int) { wa[a], wa[b] = wa[b], wa[a] })
		if ga != wa {
			return fmt.Sprintf("draw %d: Shuffle(%d) %v, want %v", i, k, ga[:k], wa[:k])
		}
	}
	return ""
}

// TestSourceMatchesMathRand pins the replica source to math/rand's:
// the seed-reduction edges, a spread of raw seeds of every sign and
// magnitude, and the mix64 seeds NewRand and Split actually pass.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), sourceEdgeSeeds...)
	pick := rand.New(rand.NewSource(7))
	n := 64
	if testing.Short() {
		n = 16
	}
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(pick.Uint64()), pick.Int63n(4*lehmerMod)-2*lehmerMod, mix64(uint64(i)))
	}
	for _, seed := range seeds {
		if d := matchMathRand(seed); d != "" {
			t.Fatal(d)
		}
	}
}

// matchReseed reseeds a stream that has drawn and holds a partial Read,
// then compares it with NewRand(seed): a Read, a Split child of each,
// and every method compareDraws drives. It returns a description of the
// first difference, or "".
func matchReseed(seed int64) string {
	got, want := NewRand(seed^0x2545f491), NewRand(seed)
	got.Float64()
	var gb, wb [11]byte
	got.Read(gb[:3]) // 4 of the 7 bytes drawn stay pending
	Reseed(got, seed)
	got.Read(gb[:])
	want.Read(wb[:])
	if gb != wb {
		return fmt.Sprintf("seed %d: Read after Reseed %v, want %v", seed, gb, wb)
	}
	if d := compareDraws(Split(got), Split(want)); d != "" {
		return fmt.Sprintf("seed %d: Split after Reseed: %s", seed, d)
	}
	if d := compareDraws(got, want); d != "" {
		return fmt.Sprintf("seed %d: after Reseed: %s", seed, d)
	}
	return ""
}

// TestReseedMatchesNewRand pins Reseed to NewRand over the
// seed-reduction edges: a used stream, reseeded, draws what a fresh
// one of the same seed draws, and so do their Split children.
func TestReseedMatchesNewRand(t *testing.T) {
	for _, seed := range sourceEdgeSeeds {
		if d := matchReseed(seed); d != "" {
			t.Fatal(d)
		}
	}
}

// FuzzSourceMatchesMathRand explores seeds beyond the test's: every
// seed must give the replica math/rand's draws through every method,
// and a reseeded stream NewRand's. Its corpus (testdata/fuzz) holds
// the seed-reduction edges.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		if d := matchMathRand(seed); d != "" {
			t.Fatal(d)
		}
		if d := matchReseed(seed); d != "" {
			t.Fatal(d)
		}
	})
}

// BenchmarkNewRand is the stream an invoker builds when its pilot
// boots: one allocation of the 607-word state, seeded.
func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	var sum int64
	for i := 0; i < b.N; i++ {
		sum += NewRand(int64(i)).Int63()
	}
	if sum == 0 {
		b.Fatal("impossible")
	}
}
