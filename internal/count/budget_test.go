package count

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"negmine/internal/bitmat"
	"negmine/internal/fault"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

func sameCounts(t *testing.T, what string, got, want [][]int) {
	t.Helper()
	for g := range want {
		for i := range want[g] {
			if got[g][i] != want[g][i] {
				t.Fatalf("%s: group %d cand %d: got %d, want %d", what, g, i, got[g][i], want[g][i])
			}
		}
	}
}

// overCount is a database whose scan yields one transaction more than
// Count() says.
type overCount struct{ *txdb.MemDB }

func (d overCount) Count() int { return d.MemDB.Count() - 1 }

// TestBitmapWindowsMatchHashTree is the property behind the one budget rule:
// whatever the ledger grants, down to rows for 64 transactions, the bitmap
// engine returns the hash tree's counts without ever holding more than the
// budget, and gives everything back — also when the scan dies mid-window.
func TestBitmapWindowsMatchHashTree(t *testing.T) {
	tax, leaves := testTax(t, 24)
	universe := leaves.Union(tax.Categories())
	extend := TransformInto(tax.ExtendInto)
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		n := 64 * (5 + r.Intn(40)) // at least two 256-transaction windows
		if trial%2 == 1 {
			n += 1 + r.Intn(63) // last window partial, last word partial
		}
		db := leafDB(int64(100+trial), leaves, n, 8)
		groups := randomGroups(r, universe, 4) // itemset sizes 1–4
		rows := usedItems(flatten(groups)).Len()
		matrix := bitmat.EstimateBytes(n, rows)
		floor := bitmat.EstimateBytes(64, rows)

		for _, withTax := range []bool{false, true} {
			// Without Tax the shared transform is applied during the fill;
			// with it, per-group extensions are declared and skipped.
			opt := Options{Parallelism: 1 + trial%3, TransformInto: extend, Backend: BackendBitmap}
			var transforms []TransformInto
			if withTax {
				opt.Tax, opt.TransformInto = tax, nil
				transforms = []TransformInto{extend, extend, extend, extend}
			}
			name := fmt.Sprintf("trial %d n=%d tax=%v", trial, n, withTax)
			want, err := HashTreeEngine{}.Multi(db, groups, transforms, opt)
			if err != nil {
				t.Fatalf("%s: hashtree: %v", name, err)
			}
			for _, total := range []int64{matrix / 2, matrix / 16, matrix / 256, floor} {
				mem := govern.NewBudget(max(total, floor))
				opt.Mem = mem
				got, err := MultiTransformed(db, groups, transforms, opt)
				if err != nil {
					t.Fatalf("%s budget %d: %v", name, mem.Total(), err)
				}
				sameCounts(t, fmt.Sprintf("%s budget %d", name, mem.Total()), got, want)
				if hw := mem.HighWater(); hw == 0 || hw > mem.Total() {
					t.Fatalf("%s: high water %d, want in (0, %d]", name, hw, mem.Total())
				}
				if mem.InUse() != 0 {
					t.Fatalf("%s budget %d: %d bytes still reserved", name, mem.Total(), mem.InUse())
				}
			}

			// One byte short of 64 transactions' rows is the floor error,
			// and the hash tree has a floor of its own.
			for _, backend := range []Backend{BackendBitmap, BackendHashTree} {
				mem := govern.NewBudget(floor - 1)
				opt.Mem, opt.Backend = mem, backend
				if _, err := MultiTransformed(db, groups, transforms, opt); !errors.Is(err, govern.ErrOverBudget) {
					t.Fatalf("%s: %v below the floor: %v, want ErrOverBudget", name, backend, err)
				}
				if mem.InUse() != 0 {
					t.Fatalf("%s: refused %v reservation leaked %d bytes", name, backend, mem.InUse())
				}
			}
			opt.Backend = BackendBitmap

			// A torn read in the second window, and a scan that outruns
			// Count(): errors, with the window's reservation released.
			mem := govern.NewBudget(4 * floor)
			opt.Mem = mem
			off := fault.Enable(txdb.PointScan, fault.Error("torn read"), fault.OnHit(4*64+10))
			_, err = MultiTransformed(db, groups, transforms, opt)
			off()
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("%s: torn read: err = %v, want the injected error", name, err)
			}
			if _, err := MultiTransformed(overCount{db}, groups, transforms, opt); err == nil {
				t.Fatalf("%s: scan past Count() was accepted", name)
			}
			if mem.InUse() != 0 {
				t.Fatalf("%s: failed scans left %d bytes reserved", name, mem.InUse())
			}
		}
	}
}

// TestBudgetFailpointHalvesBitmapWindow loses the engine's first reservation
// to an injected denial: the pass must retry at half the width and still
// return the unbudgeted counts.
func TestBudgetFailpointHalvesBitmapWindow(t *testing.T) {
	db := randomDB(11, 300, 30, 8)
	r := rand.New(rand.NewSource(12))
	universe := make(item.Itemset, 30)
	for i := range universe {
		universe[i] = item.Item(i)
	}
	groups := randomGroups(r, universe, 2)

	want, err := Multi(db, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}

	mem := govern.NewBudget(0) // unlimited: only the injected fault can deny
	defer fault.Enable(govern.PointBudget, fault.Error("injected oom"), fault.OnHit(1))()
	got, err := Multi(db, groups, Options{Mem: mem})
	if err != nil {
		t.Fatalf("a lost reservation must narrow the window, got error: %v", err)
	}
	sameCounts(t, "after a lost reservation", got, want)
	if mem.Denials() != 1 {
		t.Fatalf("denials = %d, want 1", mem.Denials())
	}
	rows := usedItems(flatten(groups)).Len()
	if hw, half := mem.HighWater(), bitmat.EstimateBytes(192, rows); hw != half {
		t.Fatalf("high water %d, want %d (rows for 192 of 300 transactions)", hw, half)
	}
}

func TestBudgetHashTreeIsTheFloor(t *testing.T) {
	db := randomDB(13, 200, 20, 6)
	r := rand.New(rand.NewSource(14))
	universe := make(item.Itemset, 20)
	for i := range universe {
		universe[i] = item.Item(i)
	}
	groups := randomGroups(r, universe, 2)

	mem := govern.NewBudget(16) // nothing fits
	_, err := Multi(db, groups, Options{Backend: BackendHashTree, Mem: mem})
	if !errors.Is(err, govern.ErrOverBudget) {
		t.Fatalf("hash tree under impossible budget: %v, want ErrOverBudget", err)
	}
	if mem.InUse() != 0 {
		t.Fatalf("failed reservation leaked %d bytes", mem.InUse())
	}
}
