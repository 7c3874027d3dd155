package crowd

import (
	"math/bits"
	"math/rand"
)

// divisor precomputes what math/rand's Int31n needs for one bound n in
// [1, 2^31): the largest 31-bit value it accepts, and n's multiplier
// for a remainder without a division (Lemire's fastmod).
type divisor struct {
	n     uint64
	limit int32  // the largest accepted Int31; larger draws are rejected
	m     uint64 // ceil(2^64 / n), wrapping to 0 for n = 1
}

func newDivisor(n int) divisor {
	return divisor{
		n:     uint64(n),
		limit: int32((1 << 31) - 1 - (1<<31)%uint32(n)),
		m:     ^uint64(0)/uint64(n) + 1,
	}
}

// intn returns rng.Intn(n) for d = newDivisor(n), drawing the same
// values in the same count. Intn(n) for n < 2^31 is Int31n, which masks
// the draw for a power of two and otherwise rejects draws above the
// limit and takes the remainder; for a power of two the limit is
// 2^31-1 and the mask equals the remainder, so one path serves both.
func intn(rng *rand.Rand, d divisor) int {
	v := int32(rng.Int63() >> 32)
	for v > d.limit {
		v = int32(rng.Int63() >> 32)
	}
	hi, _ := bits.Mul64(d.m*uint64(v), d.n)
	return int(hi)
}
