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
