// Package stats provides the random distributions the synthetic data
// generator (paper §3.1) is specified in terms of: Poisson (taxonomy fanout,
// cluster/itemset/transaction sizes), exponential (cluster and itemset
// weights) and normal (corruption levels). All sampling goes through an
// explicitly seeded Source so every experiment is reproducible bit-for-bit.
package stats

import (
	"math"
	"math/rand"
)

// Source is a seeded random source for the generator. It wraps math/rand so
// all consumers share one stream and one seed.
type Source struct {
	rng *rand.Rand
}

// NewSource returns a source seeded with seed.
func NewSource(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform integer in [0,n). n must be > 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 { return s.rng.ExpFloat64() * mean }

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return s.rng.NormFloat64()*stddev + mean
}

// Poisson returns a Poisson-distributed integer with the given mean.
//
// For small means it uses Knuth's multiplication method; for large means it
// uses the PTRS transformed-rejection sampler of Hörmann (1993), which is
// exact and O(1) expected time.
func (s *Source) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		return s.poissonKnuth(mean)
	default:
		return s.poissonPTRS(mean)
	}
}

// PoissonAtLeast samples Poisson(mean) but never returns less than min. The
// generator uses it for sizes that must be positive (a cluster of zero
// categories or an itemset of zero items is meaningless).
func (s *Source) PoissonAtLeast(mean float64, min int) int {
	if n := s.Poisson(mean); n >= min {
		return n
	}
	return min
}

func (s *Source) poissonKnuth(mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm for mean >= 10.
func (s *Source) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := s.rng.Float64() - 0.5
		v := s.rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lhs := math.Log(v * invAlpha / (a/(us*us) + b))
		rhs := -mean + k*math.Log(mean) - logFactorial(int(k))
		if lhs <= rhs {
			return int(k)
		}
	}
}

// logFactorial returns ln(n!) using a small table for n < 16 and the
// Stirling/Lanczos-quality series otherwise.
func logFactorial(n int) float64 {
	if n < 0 {
		return math.NaN()
	}
	if n < len(logFactTable) {
		return logFactTable[n]
	}
	x := float64(n + 1)
	return (x-0.5)*math.Log(x) - x + 0.5*math.Log(2*math.Pi) +
		1/(12*x) - 1/(360*x*x*x)
}

var logFactTable = func() [16]float64 {
	var t [16]float64
	acc := 0.0
	for i := 2; i < len(t); i++ {
		acc += math.Log(float64(i))
		t[i] = acc
	}
	return t
}()

// WeightedChoice selects an index from weights (which need not be
// normalized) proportionally to its weight. It panics if weights is empty or
// sums to a non-positive value.
type WeightedChoice struct {
	cum []float64 // cumulative weights
}

// NewWeightedChoice precomputes a cumulative table for repeated sampling.
func NewWeightedChoice(weights []float64) *WeightedChoice {
	if len(weights) == 0 {
		panic("stats: empty weight vector")
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("stats: negative weight")
		}
		acc += w
		cum[i] = acc
	}
	if acc <= 0 {
		panic("stats: weights sum to zero")
	}
	return &WeightedChoice{cum: cum}
}

// Sample draws one index according to the weights.
func (w *WeightedChoice) Sample(s *Source) int {
	target := s.Float64() * w.cum[len(w.cum)-1]
	lo, hi := 0, len(w.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Normalize scales weights in place so they sum to 1. A zero-sum vector is
// left untouched.
func Normalize(weights []float64) {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		return
	}
	for i := range weights {
		weights[i] /= sum
	}
}
