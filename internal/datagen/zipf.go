package datagen

// Drifting zipfian traffic primitives, shared by `datagen -drift` and the
// production workload simulator (internal/loadsim).
//
// The paper's generator (datagen.Generate) models a stationary population:
// cluster and itemset weights are frozen at build time, so every replayed
// bench sees the same item popularity forever. Real retail traffic is
// neither uniform nor stationary — a few items absorb most demand (zipfian
// popularity) and *which* items are popular rotates with seasons and
// campaigns. The types here model exactly that, deterministically: all
// randomness flows from one seed, so a (config, seed) pair identifies a
// traffic stream bit-for-bit.

import (
	"fmt"
	"math"

	"negmine/internal/stats"
)

// Zipf is a seeded zipfian sampler over ranks [0, n): rank r is drawn with
// probability proportional to 1/(r+1)^s. Sampling is a binary search over
// the precomputed CDF, O(log n) per draw and allocation-free.
type Zipf struct {
	cdf []float64 // cdf[r] = P(rank ≤ r); cdf[n-1] == 1
	s   float64
}

// NewZipf builds a sampler over n ranks with skew exponent s ≥ 0 (s = 0 is
// uniform; retail basket popularity is typically 0.8–1.2).
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("datagen: zipf over %d ranks, want ≥ 1", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("datagen: zipf exponent %v, want finite ≥ 0", s)
	}
	z := &Zipf{cdf: make([]float64, n), s: s}
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	z.cdf[n-1] = 1 // guard against rounding
	return z, nil
}

// Sample draws one rank from src.
func (z *Zipf) Sample(src *stats.Source) int {
	u := src.Float64()
	// Binary search for the first rank with cdf ≥ u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DriftSchedule maps popularity ranks to items with a rotating assignment:
// within phase p, rank r is held by item (r + p·Shift) mod N. Advancing the
// phase shifts the whole popularity curve across the dictionary — the
// "seasonal/category drift" regime where yesterday's head items become
// today's tail. The schedule itself is pure arithmetic (no state), so any
// consumer that agrees on the phase number sees the same assignment.
type DriftSchedule struct {
	N      int // item universe size
	Phases int // distinct phases before the rotation repeats (≤ 1 = stationary)
	Shift  int // item-index rotation per phase (0 = N/Phases)
}

// shift resolves the per-phase rotation step.
func (d DriftSchedule) shift() int {
	if d.Shift > 0 {
		return d.Shift
	}
	if d.Phases > 1 {
		if s := d.N / d.Phases; s > 0 {
			return s
		}
	}
	return 1
}

// Item returns the item index holding rank r during phase p.
func (d DriftSchedule) Item(phase, rank int) int {
	if d.N <= 0 {
		return 0
	}
	if d.Phases <= 1 {
		return rank % d.N
	}
	p := phase % d.Phases
	if p < 0 {
		p += d.Phases
	}
	return (rank + p*d.shift()) % d.N
}

// StreamConfig parameterizes a BasketStream.
type StreamConfig struct {
	N        int     // item universe size (indices [0, N))
	Exponent float64 // zipf skew (0 = uniform)
	AvgLen   float64 // mean basket length (Poisson, at least 1)

	// Drift: the stream advances one phase every EventsPerPhase baskets,
	// cycling through Phases rank rotations. Phases ≤ 1 disables drift.
	Phases         int
	EventsPerPhase int
	Shift          int // rank rotation per phase (0 = N/Phases)

	Seed int64
}

func (c StreamConfig) validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("datagen: stream over %d items, want ≥ 1", c.N)
	case c.AvgLen < 1:
		return fmt.Errorf("datagen: stream AvgLen = %v, want ≥ 1", c.AvgLen)
	case c.Phases > 1 && c.EventsPerPhase < 1:
		return fmt.Errorf("datagen: stream with %d phases needs EventsPerPhase ≥ 1", c.Phases)
	}
	return nil
}

// BasketStream emits an endless deterministic sequence of baskets: item
// indices drawn from a zipfian popularity curve whose rank→item assignment
// rotates on the drift schedule. Two streams built from equal configs emit
// identical sequences. Not safe for concurrent use.
type BasketStream struct {
	cfg   StreamConfig
	zipf  *Zipf
	sched DriftSchedule
	src   *stats.Source
	event int64 // baskets emitted so far
}

// NewBasketStream builds a stream from cfg.
func NewBasketStream(cfg StreamConfig) (*BasketStream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	z, err := NewZipf(cfg.N, cfg.Exponent)
	if err != nil {
		return nil, err
	}
	return &BasketStream{
		cfg:   cfg,
		zipf:  z,
		sched: DriftSchedule{N: cfg.N, Phases: cfg.Phases, Shift: cfg.Shift},
		src:   stats.NewSource(cfg.Seed),
	}, nil
}

// Phase returns the drift phase the next basket will be drawn in.
func (s *BasketStream) Phase() int {
	if s.cfg.Phases <= 1 {
		return 0
	}
	return int(s.event/int64(s.cfg.EventsPerPhase)) % s.cfg.Phases
}

// Next appends one basket of distinct item indices to dst and returns the
// extended slice. Basket length is Poisson(AvgLen) clamped to [1, N];
// duplicate draws within a basket are rejected and redrawn (bounded, so a
// tiny universe cannot stall the stream).
func (s *BasketStream) Next(dst []int) []int {
	phase := s.Phase()
	s.event++
	target := s.src.PoissonAtLeast(s.cfg.AvgLen, 1)
	if target > s.cfg.N {
		target = s.cfg.N
	}
	start := len(dst)
	for len(dst)-start < target {
		it := s.sched.Item(phase, s.zipf.Sample(s.src))
		dup := false
		for _, have := range dst[start:] {
			if have == it {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, it)
			continue
		}
		// Reject the duplicate; if the head of the curve is exhausted fall
		// back to a uniform draw so the loop terminates quickly.
		if it = s.sched.Item(phase, s.src.Intn(s.cfg.N)); !contains(dst[start:], it) {
			dst = append(dst, it)
		}
	}
	return dst
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
