package stats

import (
	"math"
	"testing"
)

func TestSourceDeterminism(t *testing.T) {
	a, b := NewSource(42), NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged on Float64")
		}
		if a.Poisson(7) != b.Poisson(7) {
			t.Fatal("same seed diverged on Poisson")
		}
	}
	c := NewSource(43)
	same := true
	a2 := NewSource(42)
	for i := 0; i < 20; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestPoissonMoments(t *testing.T) {
	// Sample mean and variance of Poisson(λ) must both be ≈ λ,
	// across both the Knuth and the PTRS regimes.
	src := NewSource(1)
	for _, mean := range []float64{0.5, 3, 9, 29.5, 40, 200} {
		const n = 20000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(src.Poisson(mean))
		}
		m, v := moments(xs)
		tol := 4 * math.Sqrt(mean/float64(n)) * math.Sqrt(mean) // generous
		if math.Abs(m-mean) > math.Max(tol, 0.05*mean) {
			t.Errorf("Poisson(%v): sample mean %v", mean, m)
		}
		if math.Abs(v-mean) > 0.15*mean+0.2 {
			t.Errorf("Poisson(%v): sample variance %v", mean, v)
		}
	}
}

func TestPoissonEdge(t *testing.T) {
	src := NewSource(2)
	if got := src.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := src.Poisson(-3); got != 0 {
		t.Errorf("Poisson(-3) = %d", got)
	}
	for i := 0; i < 100; i++ {
		if got := src.PoissonAtLeast(0.1, 1); got < 1 {
			t.Fatalf("PoissonAtLeast returned %d < 1", got)
		}
	}
}

func TestExpAndNormalMoments(t *testing.T) {
	src := NewSource(3)
	const n = 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.Exp(2.5)
	}
	if m, _ := moments(xs); math.Abs(m-2.5) > 0.1 {
		t.Errorf("Exp mean = %v, want ≈2.5", m)
	}
	for i := range xs {
		xs[i] = src.Normal(0.5, 0.1)
	}
	m, v := moments(xs)
	if math.Abs(m-0.5) > 0.01 {
		t.Errorf("Normal mean = %v, want ≈0.5", m)
	}
	if math.Abs(v-0.01) > 0.002 {
		t.Errorf("Normal variance = %v, want ≈0.01", v)
	}
}

func TestLogFactorial(t *testing.T) {
	// Check against direct summation for a range spanning table and series.
	acc := 0.0
	for n := 1; n <= 200; n++ {
		acc += math.Log(float64(n))
		got := logFactorial(n)
		if math.Abs(got-acc) > 1e-6*math.Max(1, acc) {
			t.Errorf("logFactorial(%d) = %v, want %v", n, got, acc)
		}
	}
	if logFactorial(0) != 0 {
		t.Errorf("logFactorial(0) = %v", logFactorial(0))
	}
	if !math.IsNaN(logFactorial(-1)) {
		t.Error("logFactorial(-1) should be NaN")
	}
}

func TestWeightedChoice(t *testing.T) {
	src := NewSource(4)
	wc := NewWeightedChoice([]float64{1, 0, 3})
	counts := [3]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[wc.Sample(src)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ≈3", ratio)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"zero-sum": {0, 0},
		"negative": {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights did not panic", name)
				}
			}()
			NewWeightedChoice(weights)
		}()
	}
}

func TestNormalize(t *testing.T) {
	w := []float64{1, 3}
	Normalize(w)
	if w[0] != 0.25 || w[1] != 0.75 {
		t.Errorf("Normalize = %v", w)
	}
	z := []float64{0, 0}
	Normalize(z) // must not divide by zero
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("Normalize(zero) = %v", z)
	}
}

// moments returns the mean and the population variance of xs.
func moments(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs))
}
