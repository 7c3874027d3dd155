package stat

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins Quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, including the clamped ranks of
// short samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
}

// TestPercentileSuppression: a percentile is reported only with at
// least MinTail samples beyond it.
func TestPercentileSuppression(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := Percentile(xs, 0.9); !ok {
		t.Error("p90 of 100 samples (10 beyond) suppressed")
	}
	if _, ok := Percentile(xs, 0.95); ok {
		t.Error("p95 of 100 samples (5 beyond) reported")
	}
	if _, ok := Percentile(xs[:10], 0.5); ok {
		t.Error("median of 10 samples (5 beyond) reported as a percentile")
	}
}
