package dist

import "math/rand"

// NewRand returns a deterministic RNG for a seed. All simulation
// randomness flows through streams created here (or forked with
// Split), never through the global math/rand source, so a run is a
// pure function of its seeds.
//
// The stream's source is a replica of math/rand's: the same draws, bit
// for bit, for every seed (TestSourceMatchesMathRand and
// FuzzSourceMatchesMathRand pin it against rand.NewSource), seeded in
// about 40% of the time. Every invoker a pilot boots draws from one:
// built here for the first invokers of a controller, and later a
// retired invoker's stream restarted with Reseed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(newSource(mix64(uint64(seed))))
}

// Reseed restarts a stream built by NewRand or Split so that it draws
// exactly what NewRand(seed) would, without allocating a new one.
// rand.Rand.Seed also resets the Read position.
func Reseed(r *rand.Rand, seed int64) {
	r.Seed(mix64(uint64(seed)))
}

// Split forks a statistically independent child stream off a parent.
//
// The child seed is drawn from the parent and passed through a
// splitmix64 finalizer, so (a) consecutive children of one root are
// decorrelated even though math/rand seeds with similar values produce
// correlated low bits, and (b) the fork consumes exactly one draw from
// the parent — components that split all their streams up front (as
// the workload generators do) therefore keep every stream's sequence
// stable when unrelated code adds or removes draws elsewhere.
func Split(root *rand.Rand) *rand.Rand {
	return rand.New(newSource(mix64(uint64(root.Int63()))))
}

// mix64 is the splitmix64 finalizer (Steele et al., "Fast Splittable
// Pseudorandom Number Generators"), truncated to the non-negative
// int63 range math/rand sources expect.
func mix64(z uint64) int64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

// math/rand's additive lagged-Fibonacci generator (Mitchell and Reeds):
// 607 words of state, the sum of the words 607 and 273 draws back
// makes each draw. Seeding fills the state from a Lehmer generator
// x_{k+1} = 48271·x_k mod (2^31−1), XORed with a fixed "cooked" table.
const (
	lagLen    = 607
	lagTap    = 273
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
)

var (
	// seedPow[i][j] is 48271^(21+3i+j) mod (2^31−1): the power that
	// takes the seed to the Lehmer draw math/rand folds into word i.
	// Seeding multiplies by it instead of stepping the generator 1,841
	// times in series, so the 1,821 products are independent.
	seedPow [lagLen][3]uint64

	// cooked is math/rand's rngCooked table, recovered from the
	// standard library's own stream by recoverCooked.
	cooked [lagLen]int64
)

func init() {
	p := uint64(1)
	for range 20 { // math/rand discards the first 20 draws
		p = lehmerMulMod(p, lehmerMul)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			p = lehmerMulMod(p, lehmerMul)
			seedPow[i][j] = p
		}
	}
	cooked = recoverCooked()
}

// recoverCooked reads math/rand's cooked table back out of a standard
// source of known seed. Its first 607 draws y_1..y_607 follow
// y_k = y_{k−607} + y_{k−273}, so running that recurrence backwards
// recovers the seeded state y_{−606}..y_0, and XORing out the seed's
// Lehmer part leaves the table.
func recoverCooked() [lagLen]int64 {
	const known = 1
	std := rand.NewSource(known).(rand.Source64)
	var y [2 * lagLen]int64 // y[k+lagLen-1] holds y_k, k = −606..607
	for k := 1; k <= lagLen; k++ {
		y[k+lagLen-1] = int64(std.Uint64())
	}
	for k := lagLen; k >= 1; k-- {
		y[k-1] = y[k+lagLen-1] - y[k+lagLen-1-lagTap]
	}
	var seeded source
	seeded.Seed(known) // with cooked still zero: the Lehmer part alone
	var c [lagLen]int64
	for i := range c {
		// Draw k reads word (lagLen−lagTap−k) mod lagLen as y_{k−607},
		// so word i holds y_{−606+j} with j = (333−i) mod 607.
		j := (lagLen - lagTap - 1 - i + lagLen) % lagLen
		c[i] = y[j] ^ seeded.vec[i]
	}
	return c
}

// lehmerMulMod returns a·x mod (2^31−1) for a, x < 2^31, folding the
// product's high bits onto its low ones (2^31 ≡ 1) instead of dividing.
func lehmerMulMod(a, x uint64) uint64 {
	t := a * x
	t = t&lehmerMod + t>>31
	t = t&lehmerMod + t>>31
	if t >= lehmerMod {
		t -= lehmerMod
	}
	return t
}

// source is math/rand's rngSource, bit for bit: the same state, the
// same draws, the same seeding arithmetic (including the reduction of
// the seed mod 2^31−1, negative seeds wrapping and 0 becoming
// 89482311), computed from seedPow instead of by a serial Lehmer walk.
type source struct {
	tap  int
	feed int
	vec  [lagLen]int64
}

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = lagLen - lagTap
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &seedPow[i]
		u := lehmerMulMod(p[0], x)<<40 ^ lehmerMulMod(p[1], x)<<20 ^ lehmerMulMod(p[2], x)
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lagLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lagLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
