package count

import (
	"errors"
	"testing"

	"negmine/internal/fault"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// TestScanFaultPropagatesFromCounting checks a mid-scan read error surfaces
// as an error from the counting pass instead of partial counts.
func TestScanFaultPropagatesFromCounting(t *testing.T) {
	_, leaves := testTax(t, 8)
	db := leafDB(9, leaves, 50, 4)
	groups := [][]item.Itemset{{item.New(leaves[0]), item.New(leaves[1])}}

	defer fault.Enable(txdb.PointScan, fault.Error("torn read"), fault.OnHit(10))()
	for _, backend := range []Backend{BackendHashTree, BackendBitmap} {
		_, err := Multi(db, groups, Options{Backend: backend})
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("%v: err = %v, want injected scan error", backend, err)
		}
		fault.Enable(txdb.PointScan, fault.Error("torn read"), fault.OnHit(10)) // reset counter
	}
}

// TestPassFaultStopsEveryEngine arms the failpoint at the top of a counting
// pass: the pass named by OnHit fails before any engine runs — hash tree,
// bitmap windows, an Indexed database's rows alike — and the ones before it
// count.
func TestPassFaultStopsEveryEngine(t *testing.T) {
	tax, leaves := testTax(t, 8)
	db := leafDB(10, leaves, 50, 4)
	groups := [][]item.Itemset{{item.New(leaves[0], leaves[1])}}
	ix, err := BuildIndex(db, tax, 1, Options{})
	if err != nil || ix.Matrix() == nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	defer ix.Release()
	for name, pass := range map[string]func() ([][]int, error){
		"hashtree": func() ([][]int, error) { return Multi(db, groups, Options{Backend: BackendHashTree}) },
		"bitmap":   func() ([][]int, error) { return Multi(db, groups, Options{Backend: BackendBitmap}) },
		"indexed":  func() ([][]int, error) { return Multi(ix, groups, Options{Tax: tax}) },
	} {
		off := fault.Enable(PointPass, fault.Error("killed"), fault.OnHit(2))
		if _, err := pass(); err != nil {
			t.Errorf("%s: first pass: %v", name, err)
		}
		if _, err := pass(); !errors.Is(err, fault.ErrInjected) {
			t.Errorf("%s: second pass: err = %v, want the injected fault", name, err)
		}
		off()
	}
}
