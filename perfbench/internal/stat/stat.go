// Package stat holds the order statistics the benchmark and its spread
// report share.
package stat

import (
	"math"
	"sort"
)

// MinTail is the fewest samples that must lie beyond a percentile
// before it is reported: a "p95" over forty samples is really the
// second-largest value, and it moves from run to run accordingly.
const MinTail = 10

// Quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between the closest ranks; xs need not be sorted.
// It returns NaN for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Percentile returns the q-quantile of xs when at least MinTail
// samples lie strictly beyond it, and ok false otherwise.
func Percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	// Samples strictly above the interpolation position q*(n-1).
	beyond := len(xs) - 1 - int(math.Floor(q*float64(len(xs)-1)))
	if beyond < MinTail {
		return 0, false
	}
	return Quantile(xs, q), true
}

// Quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so a spread computed here matches one computed there.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method "exclusive", in its own integer
		// arithmetic: the rank clamps to [1, n-1] and the weight may then
		// extrapolate past the end samples, exactly as Python does.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Sum adds the samples.
func Sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
