package serve

import (
	"context"
	"testing"
)

// The query and score hot paths are specified allocation-free in steady
// state: result buffers are caller-supplied and scratch comes from pools.
// These tests pin that at 0 allocs/op so a regression fails loudly rather
// than showing up as GC pressure under load.

// skipUnderRace skips an allocation pin when the race detector is on: it
// makes sync.Pool drop items at random, so a pooled path allocates.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

func TestQueryItemZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	snap := testSnapshot(t)
	dst := make([]RuleID, 0, snap.Len())
	// Warm the cache: the first lookup per key computes and stores.
	dst = snap.QueryItem(dst[:0], "pepsi", 0, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = snap.QueryItem(dst[:0], "pepsi", 0, 0)
	}); allocs != 0 {
		t.Fatalf("QueryItem (cache hit): %v allocs/op, want 0", allocs)
	}
}

func TestQuerySharedZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	snap := testSnapshot(t)
	ctx := context.Background()
	if _, err := snap.QueryShared(ctx, "pepsi", 0, 0); err != nil { // warm the cache
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		ids, _ := snap.QueryShared(ctx, "pepsi", 0, 0)
		if len(ids) == 0 {
			t.Error("no rules")
		}
	}); allocs != 0 {
		t.Fatalf("QueryShared (cache hit): %v allocs/op, want 0", allocs)
	}
}

func TestQueryItemComputeZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	snap := BuildSnapshot(testStore(), testTaxonomy(t), Meta{CacheSize: -1})
	dst := make([]RuleID, 0, snap.Len())
	dst = snap.QueryItem(dst[:0], "pepsi", 0, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = snap.QueryItem(dst[:0], "pepsi", 0, 0)
	}); allocs != 0 {
		t.Fatalf("QueryItem (cache disabled, compute path): %v allocs/op, want 0", allocs)
	}
}

func TestScoreZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	snap := testSnapshot(t)
	dst := make([]RuleID, 0, snap.Len())
	basket := []string{"pepsi", "chips"}
	// Warm the scratch pool.
	dst = snap.Score(dst[:0], basket, 0, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = snap.Score(dst[:0], basket, 0, 0)
	}); allocs != 0 {
		t.Fatalf("Score: %v allocs/op, want 0", allocs)
	}
}

func TestExpandZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	snap := testSnapshot(t)
	dst := make([]string, 0, 16)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = snap.Expand(dst[:0], "pepsi")
	}); allocs != 0 {
		t.Fatalf("Expand: %v allocs/op, want 0", allocs)
	}
}
