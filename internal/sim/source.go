package sim

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator bit for bit
// (the same state, tap, feed, Uint64, Int63 and seed normalisation), so
// rand.New(source) draws what rand.New(rand.NewSource(seed)) draws; see
// TestSourceMatchesMathRand. Only Seed differs: the k-th state of
// math/rand's seeding LCG x ← 48271·x mod M, M = 2³¹−1, is
// (48271^k mod M)·seed mod M, so Seed reads each of its 1,841 states from
// a table of powers instead of stepping the LCG, about three times faster.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const rngLen, rngTap, lcgMod = 607, 273, 1<<31 - 1

var (
	// lcgPow[k] is 48271^k mod M, for every k ≤ 20+3·rngLen a Seed reads.
	lcgPow [21 + 3*rngLen]uint64
	// rngCooked is math/rand's table of that name, XORed into the seeded
	// state. init recovers it from math/rand rather than copying it.
	rngCooked [rngLen]int64
)

func init() {
	lcgPow[0] = 1
	for k := 1; k < len(lcgPow); k++ {
		lcgPow[k] = lcgPow[k-1] * 48271 % lcgMod
	}
	// Output n of a freshly seeded source adds the word at its tap index
	// rngLen-1-n to the word at its feed index and stores the sum there.
	// The tap word is output n-rngTap from n = rngTap on, else the seeded
	// word output n+rngLen-rngTap feeds: walking n down, each is known.
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen]int64
	for n := range out {
		out[n] = int64(ref.Uint64())
	}
	var seeded, lcg source
	for n := rngLen - 1; n >= 0; n-- {
		tap := seeded.vec[rngLen-1-n]
		if n >= rngTap {
			tap = out[n-rngTap]
		}
		seeded.vec[(2*rngLen-rngTap-1-n)%rngLen] = out[n] - tap
	}
	lcg.Seed(1) // rngCooked is still zero: the LCG part alone
	for i := range rngCooked {
		rngCooked[i] = seeded.vec[i] ^ lcg.vec[i]
	}
}

// lcgAt returns the k-th state of the seeding LCG started at x, 0 < x < M.
// Two folds of the product (< 2⁶²) leave a value ≤ M that is congruent to
// it; M is prime and neither factor is 0 mod M, so the value is below M.
func lcgAt(x uint64, k int) int64 {
	p := lcgPow[k] * x
	p = p&lcgMod + p>>31
	return int64(p&lcgMod + p>>31)
}

// Seed sets the state rand.NewSource(seed) starts from.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	if seed %= lcgMod; seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	for i := range s.vec {
		k, x := 20+3*i, uint64(seed)
		s.vec[i] = lcgAt(x, k+1)<<40 ^ lcgAt(x, k+2)<<20 ^ lcgAt(x, k+3) ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
