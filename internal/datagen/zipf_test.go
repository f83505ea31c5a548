package datagen

import (
	"bytes"
	"fmt"
	"testing"

	"negmine/internal/stats"
	"negmine/internal/txdb"
)

// TestZipfChiSquare draws a large sample and verifies the empirical rank
// distribution matches the configured skew by Pearson's chi-square. The
// critical value for 99 degrees of freedom at α = 0.001 is 148.2; the
// draws are seeded, so this is a deterministic regression test, not a
// flaky statistical one.
func TestZipfChiSquare(t *testing.T) {
	for _, s := range []float64{0, 0.8, 1.0, 1.2} {
		t.Run(fmt.Sprintf("s=%v", s), func(t *testing.T) {
			const n, draws = 100, 200000
			z, err := NewZipf(n, s)
			if err != nil {
				t.Fatal(err)
			}
			src := stats.NewSource(42)
			obs := make([]int, n)
			for i := 0; i < draws; i++ {
				obs[z.Sample(src)]++
			}
			probs := make([]float64, n)
			prev := 0.0
			for r := range probs {
				probs[r] = z.cdf[r] - prev
				prev = z.cdf[r]
			}
			if prev != 1 {
				t.Fatalf("cdf ends at %v, want 1", prev)
			}
			x2 := chiSquare(obs, probs)
			if x2 > 148.2 {
				t.Fatalf("chi-square = %.1f exceeds critical value 148.2 for 99 dof at α=0.001", x2)
			}
			// The skew must actually bite: rank 0 should dominate for s > 0.
			if s > 0 && obs[0] <= obs[n-1] {
				t.Fatalf("rank 0 drawn %d times, rank %d drawn %d — no skew", obs[0], n-1, obs[n-1])
			}
		})
	}
}

// chiSquare computes Pearson's chi-square statistic of observed counts
// against expected probabilities (both length n). Compare the result against
// a critical value for n-1 degrees of freedom.
func chiSquare(observed []int, probs []float64) float64 {
	total := 0
	for _, o := range observed {
		total += o
	}
	x2 := 0.0
	for i, o := range observed {
		e := probs[i] * float64(total)
		if e == 0 {
			continue
		}
		d := float64(o) - e
		x2 += d * d / e
	}
	return x2
}

// TestZipfRejectsBadConfig covers the validation paths.
func TestZipfRejectsBadConfig(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0, 1) succeeded")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("NewZipf(10, -1) succeeded")
	}
	if _, err := NewBasketStream(StreamConfig{N: 0, AvgLen: 2}); err == nil {
		t.Error("stream over 0 items succeeded")
	}
	if _, err := NewBasketStream(StreamConfig{N: 10, AvgLen: 0.5}); err == nil {
		t.Error("stream with AvgLen < 1 succeeded")
	}
	if _, err := NewBasketStream(StreamConfig{N: 10, AvgLen: 2, Phases: 3}); err == nil {
		t.Error("drifting stream without EventsPerPhase succeeded")
	}
}

// TestDriftScheduleRotation verifies the rank→item assignment is a
// bijection within each phase and actually moves across phases.
func TestDriftScheduleRotation(t *testing.T) {
	d := DriftSchedule{N: 12, Phases: 4}
	for p := 0; p < d.Phases; p++ {
		seen := map[int]bool{}
		for r := 0; r < d.N; r++ {
			it := d.Item(p, r)
			if it < 0 || it >= d.N {
				t.Fatalf("phase %d rank %d → item %d out of range", p, r, it)
			}
			if seen[it] {
				t.Fatalf("phase %d maps two ranks to item %d", p, it)
			}
			seen[it] = true
		}
	}
	if d.Item(0, 0) == d.Item(1, 0) {
		t.Fatal("head item did not move between phases")
	}
	if d.Item(0, 0) != d.Item(d.Phases, 0) {
		t.Fatal("phase rotation is not cyclic")
	}
	// Stationary schedule never moves.
	s := DriftSchedule{N: 12, Phases: 1}
	if s.Item(0, 3) != 3 || s.Item(7, 3) != 3 {
		t.Fatal("stationary schedule moved")
	}
}

// encodeStream renders count baskets from a fresh stream into a byte
// buffer — the determinism contract is byte-identical output.
func encodeStream(t *testing.T, cfg StreamConfig, count int) []byte {
	t.Helper()
	s, err := NewBasketStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var basket []int
	for i := 0; i < count; i++ {
		basket = s.Next(basket[:0])
		fmt.Fprintf(&buf, "%v\n", basket)
	}
	return buf.Bytes()
}

// TestBasketStreamDeterminism: same seed ⇒ byte-identical stream; a
// different seed ⇒ a different stream.
func TestBasketStreamDeterminism(t *testing.T) {
	cfg := StreamConfig{
		N: 500, Exponent: 1.0, AvgLen: 6,
		Phases: 3, EventsPerPhase: 100, Seed: 7,
	}
	a := encodeStream(t, cfg, 1000)
	b := encodeStream(t, cfg, 1000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different streams")
	}
	cfg.Seed = 8
	if bytes.Equal(a, encodeStream(t, cfg, 1000)) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestBasketStreamBaskets checks basic basket invariants: non-empty,
// distinct items, indices in range, and that drift shifts the head item.
func TestBasketStreamBaskets(t *testing.T) {
	cfg := StreamConfig{
		N: 50, Exponent: 1.2, AvgLen: 4,
		Phases: 2, EventsPerPhase: 2000, Seed: 3,
	}
	s, err := NewBasketStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	headByPhase := make([]map[int]int, cfg.Phases)
	for p := range headByPhase {
		headByPhase[p] = map[int]int{}
	}
	var basket []int
	for i := 0; i < 2*cfg.EventsPerPhase; i++ {
		phase := s.Phase()
		basket = s.Next(basket[:0])
		if len(basket) == 0 {
			t.Fatal("empty basket")
		}
		seen := map[int]bool{}
		for _, it := range basket {
			if it < 0 || it >= cfg.N {
				t.Fatalf("item %d out of range", it)
			}
			if seen[it] {
				t.Fatalf("basket %v repeats item %d", basket, it)
			}
			seen[it] = true
			headByPhase[phase][it]++
		}
	}
	mode := func(m map[int]int) int {
		best, bestN := -1, -1
		for it, n := range m {
			if n > bestN {
				best, bestN = it, n
			}
		}
		return best
	}
	if mode(headByPhase[0]) == mode(headByPhase[1]) {
		t.Fatalf("hottest item identical across phases (%d) — drift had no effect", mode(headByPhase[0]))
	}
}

// TestGenerateDriftDeterminism: GenerateDrift with the same (Params,
// DriftParams) must produce byte-identical databases, and the emitted
// popularity must be visibly zipfian.
func TestGenerateDriftDeterminism(t *testing.T) {
	p := Scaled(Short(), 100)
	p.NumTransactions = 2000
	d := DriftParams{Exponent: 1.0, Phases: 4}

	render := func(d DriftParams) ([]byte, map[int64]int) {
		tax, db, err := GenerateDrift(p, d)
		if err != nil {
			t.Fatal(err)
		}
		if tax.Leaves().Len() == 0 {
			t.Fatal("no leaves")
		}
		var buf bytes.Buffer
		freq := map[int64]int{}
		err = db.Scan(func(tx txdb.Transaction) error {
			fmt.Fprintf(&buf, "%d %v\n", tx.TID, tx.Items)
			for _, it := range tx.Items {
				freq[int64(it)]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), freq
	}
	a, _ := render(d)
	b, _ := render(d)
	if !bytes.Equal(a, b) {
		t.Fatal("same params produced different databases")
	}
	// Skew is asserted on a stationary stream: with drift enabled every
	// item holds the head rank for only 1/Phases of the run, which
	// deliberately flattens per-item totals.
	_, freq := render(DriftParams{Exponent: 1.2})
	max, n := 0, 0
	for _, c := range freq {
		if c > max {
			max = c
		}
		n++
	}
	if n < 2 {
		t.Fatal("degenerate item distribution")
	}
	avg := 0
	for _, c := range freq {
		avg += c
	}
	avg /= n
	if max < 3*avg {
		t.Fatalf("hottest item seen %d times vs mean %d — distribution not skewed", max, avg)
	}
}
