package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: fewer, and the "percentile" is one or two outliers.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile of an ascending slice and
// how many samples lie strictly beyond it. An empty slice yields (0, 0).
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

func median(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 0.5)
	return v
}

// tail returns the q-quantile when at least minBeyond samples lie beyond
// it, and otherwise steps down through p90 and p75 to the median, so a short
// run never reports a maximum under a percentile's name. used is the
// quantile actually reported.
func tail(xs []float64, q float64) (v, used float64) {
	s := sortedCopy(xs)
	for _, cand := range []float64{q, 0.9, 0.75} {
		if cand > q {
			continue
		}
		if v, beyond := percentile(s, cand); beyond >= minBeyond {
			return v, cand
		}
	}
	v, _ = percentile(s, 0.5)
	return v, 0.5
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the driver judges spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4) // after clamping, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
