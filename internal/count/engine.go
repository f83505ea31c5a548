package count

import (
	"fmt"
	"strings"

	"negmine/internal/bitmat"
	"negmine/internal/fault"
	"negmine/internal/item"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// PointBudget is the failpoint evaluated where BackendAuto checks the
// bitmap memory budget; arming it with an error simulates a budget trip and
// must produce a silent, correct fallback to the hash-tree engine.
const PointBudget = "count.bitmap.budget"

// Backend names a support-counting engine.
type Backend int

const (
	// BackendAuto lets EngineFor choose: the bitmap engine when the database
	// is memory-resident and the bitmap matrix fits Options.BitmapBudget,
	// the hash-tree engine otherwise. It is the zero value, so existing
	// callers get the heuristic without code changes.
	BackendAuto Backend = iota
	// BackendHashTree forces per-transaction subset probing through the
	// Agrawal–Srikant hash tree. It works over any DB (disk-resident,
	// throttled, instrumented) and with arbitrary transforms.
	BackendHashTree
	// BackendBitmap forces the vertical TID-bitmap engine (internal/bitmat):
	// one build pass, then AND+popcount per candidate. It requires either a
	// shared transform or — for per-group transforms — an Options.Tax
	// declaration that the transforms are ancestor extensions.
	BackendBitmap
)

// String names the backend as accepted by ParseBackend.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendHashTree:
		return "hashtree"
	case BackendBitmap:
		return "bitmap"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend converts a -backend flag value into a Backend.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return BackendAuto, nil
	case "hashtree", "hash-tree", "tree":
		return BackendHashTree, nil
	case "bitmap", "bitmat", "vertical":
		return BackendBitmap, nil
	default:
		return BackendAuto, fmt.Errorf("count: unknown backend %q (want auto, hashtree or bitmap)", s)
	}
}

// DefaultBitmapBudget caps the bitmap matrix at 256 MiB when
// Options.BitmapBudget is zero.
const DefaultBitmapBudget int64 = 256 << 20

// TransformInto maps a transaction's itemset before counting, appending the
// result into dst (normally dst[:0] of a caller-owned scratch buffer) and
// returning the sorted, deduplicated set. The return value may alias dst's
// (possibly grown) backing array; engines stop using it before the next call
// on the same buffer. Implementations must be safe for concurrent calls
// (each call gets its own dst).
type TransformInto func(dst []item.Item, s item.Itemset) item.Itemset

// Engine is a pluggable support-counting backend. Multi counts several
// candidate groups — each of uniform itemset size — in one logical database
// pass (exactly one db.Scan for sequential engines, one sharded scan
// otherwise), honoring the transform configuration described on
// MultiTransformed. Implementations are stateless and safe for concurrent
// use.
type Engine interface {
	// Name is the ParseBackend-compatible engine name.
	Name() string
	Multi(db txdb.DB, groups [][]item.Itemset, transforms []TransformInto, opt Options) ([][]int, error)
}

// Indexed is a txdb.DB that carries a vertical index of itself under the
// ancestor extension of Taxonomy(): the 1-item counts Singletons would scan
// for, and the rows bitmat.FromDBTaxonomy would build for every item a
// counting pass can name (the large 1-items — level-wise candidates and the
// paper's negative candidates are built from nothing else). Passes declared
// under the same taxonomy (Options.Tax) are answered from the index: no scan,
// no matrix build, and Backend — a choice between ways of scanning — does not
// apply. Every other pass scans the database as usual.
type Indexed interface {
	txdb.DB
	Taxonomy() *taxonomy.Taxonomy
	Singletons() *item.Counter
	Matrix() *bitmat.Matrix
}

// indexOf returns db's index when it answers passes declared under tax.
func indexOf(db txdb.DB, tax *taxonomy.Taxonomy) Indexed {
	if ix, ok := db.(Indexed); ok && tax != nil && ix.Taxonomy() == tax {
		return ix
	}
	return nil
}

// EngineFor selects the engine for a counting pass. An Indexed database
// counts from its own rows; otherwise explicit Backend values are obeyed and
// BackendAuto applies the heuristic: bitmap only when
//
//   - the database is a memory-resident *txdb.MemDB — wrappers like
//     txdb.Instrumented or txdb.Throttled model disk-resident access and
//     keep the paper-faithful hash-tree scan, and
//   - per-group transforms, if any, are declared as taxonomy ancestor
//     extensions via Options.Tax (the bitmap engine cannot honor opaque
//     per-group transforms), and
//   - the matrix over the groups' distinct items fits Options.BitmapBudget.
func EngineFor(db txdb.DB, groups [][]item.Itemset, transforms []TransformInto, opt Options) Engine {
	if indexOf(db, opt.Tax) != nil {
		return BitmapEngine{}
	}
	switch opt.Backend {
	case BackendHashTree:
		return HashTreeEngine{}
	case BackendBitmap:
		return BitmapEngine{}
	}
	if _, ok := db.(*txdb.MemDB); !ok {
		return HashTreeEngine{}
	}
	if hasPerGroup(transforms) && opt.Tax == nil {
		return HashTreeEngine{}
	}
	budget := opt.BitmapBudget
	if budget == 0 {
		budget = DefaultBitmapBudget
	}
	if fault.Hit(PointBudget) != nil {
		return HashTreeEngine{} // injected budget trip
	}
	est := bitmat.EstimateBytes(db.Count(), usedItems(groups).Len())
	if est > budget {
		return HashTreeEngine{}
	}
	// A matrix that fits BitmapBudget may still not fit what is left of the
	// process memory budget; don't pick an engine whose reservation is
	// already known to fail.
	if est > opt.Mem.Available() {
		return HashTreeEngine{}
	}
	return BitmapEngine{}
}

// hasPerGroup reports whether any group has its own transform installed.
func hasPerGroup(transforms []TransformInto) bool {
	for _, tr := range transforms {
		if tr != nil {
			return true
		}
	}
	return false
}

// usedItems returns the sorted distinct items over all candidate groups.
func usedItems(groups [][]item.Itemset) item.Itemset {
	seen := make(map[item.Item]struct{})
	var out []item.Item
	for _, g := range groups {
		for _, c := range g {
			for _, x := range c {
				if _, ok := seen[x]; !ok {
					seen[x] = struct{}{}
					out = append(out, x)
				}
			}
		}
	}
	return item.SortDedup(out)
}

// applyShared applies the shared transform configuration (TransformInto
// first, then the legacy Transform, then identity) using buf as scratch. It
// returns the transformed set and the possibly-grown buffer to keep for the
// next transaction.
func applyShared(opt Options, buf []item.Item, raw item.Itemset) (item.Itemset, []item.Item) {
	if opt.TransformInto != nil {
		s := opt.TransformInto(buf[:0], raw)
		return s, s[:0]
	}
	if opt.Transform != nil {
		return opt.Transform(raw), buf
	}
	return raw, buf
}

// sharedBitmapTransform adapts the shared transform configuration to the
// bitmat builder's hook (nil when counting raw transactions).
func sharedBitmapTransform(opt Options) bitmat.Transform {
	if opt.TransformInto != nil {
		return bitmat.Transform(opt.TransformInto)
	}
	if opt.Transform != nil {
		tr := opt.Transform
		return func(_ []item.Item, s item.Itemset) item.Itemset { return tr(s) }
	}
	return nil
}

// BitmapEngine counts candidates against a vertical TID-bitmap matrix: one
// database pass materializes a bitmap row per distinct candidate item, then
// each candidate's support is the popcount of the AND of its rows. The
// candidate loop — not the scan — is what parallelizes: Options.Parallelism
// workers shard the flattened candidate list.
//
// When Options.Tax is set the matrix is built with ancestor-closure rows
// (bitmat.FromDBTaxonomy) and all transforms are skipped: the Tax field is
// the caller's declaration that its installed transforms are taxonomy
// ancestor extensions (possibly filtered to candidate items), which the
// closure build reproduces exactly. Without Tax, a shared transform is
// applied during the build; opaque per-group transforms are an error.
type BitmapEngine struct{}

// Name implements Engine.
func (BitmapEngine) Name() string { return "bitmap" }

// Multi implements Engine.
func (BitmapEngine) Multi(db txdb.DB, groups [][]item.Itemset, transforms []TransformInto, opt Options) ([][]int, error) {
	if transforms != nil && len(transforms) != len(groups) {
		return nil, fmt.Errorf("count: %d transforms for %d groups", len(transforms), len(groups))
	}
	if ix := indexOf(db, opt.Tax); ix != nil {
		return countRows(ix.Matrix(), groups, opt) // rows built and reserved by db's owner
	}
	used := usedItems(groups)
	reserved := bitmat.EstimateBytes(db.Count(), used.Len())
	if err := opt.Mem.Reserve(reserved); err != nil {
		return nil, fmt.Errorf("count: bitmap matrix: %w", err)
	}
	defer opt.Mem.Release(reserved)
	var (
		m   *bitmat.Matrix
		err error
	)
	switch {
	case opt.Tax != nil:
		m, err = bitmat.FromDBTaxonomy(db, opt.Tax, used)
	case hasPerGroup(transforms):
		return nil, fmt.Errorf("count: bitmap backend cannot honor per-group transforms without Options.Tax")
	default:
		m, err = bitmat.FromDB(db, used, sharedBitmapTransform(opt))
	}
	if err != nil {
		return nil, err
	}
	return countRows(m, groups, opt)
}

// countRows counts every group's candidates against m's rows.
func countRows(m *bitmat.Matrix, groups [][]item.Itemset, opt Options) ([][]int, error) {
	flat := make([]item.Itemset, 0)
	for _, g := range groups {
		flat = append(flat, g...)
	}
	counts, err := m.Counts(flat, opt.Parallelism)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(groups))
	off := 0
	for gi, g := range groups {
		out[gi] = counts[off : off+len(g) : off+len(g)]
		off += len(g)
	}
	return out, nil
}
