package count

import (
	"fmt"
	"strings"

	"negmine/internal/bitmat"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// Backend names a support-counting engine.
type Backend int

const (
	// BackendAuto lets EngineFor choose: the bitmap engine unless a
	// per-group transform is opaque to it (no Options.Tax). It is the zero
	// value.
	BackendAuto Backend = iota
	// BackendHashTree forces per-transaction subset probing through the
	// Agrawal–Srikant hash tree. It works over any DB (disk-resident,
	// throttled, instrumented) and with arbitrary transforms.
	BackendHashTree
	// BackendBitmap forces the vertical TID-bitmap engine (internal/bitmat):
	// one scan, AND+popcount per candidate and window of transactions. It
	// requires either a shared transform or — for per-group transforms — an
	// Options.Tax declaration that the transforms are ancestor extensions.
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
	Multi(db txdb.DB, groups [][]item.Itemset, transforms []TransformInto, opt Options) ([][]int, error)
}

// EngineFor selects the engine for a counting pass. An Indexed database
// counts from its own rows. Otherwise the bitmap engine counts, over any
// database — it honours memory itself, by narrowing its transaction window —
// unless BackendHashTree asks for the hash tree or, under BackendAuto, a
// per-group transform is opaque to it (not declared an ancestor extension
// via Options.Tax).
func EngineFor(db txdb.DB, transforms []TransformInto, opt Options) Engine {
	if rowsOf(db, opt.Tax) != nil {
		return BitmapEngine{}
	}
	opaque := hasPerGroup(transforms) && opt.Tax == nil
	if opt.Backend == BackendHashTree || opt.Backend == BackendAuto && opaque {
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

// flatten concatenates the groups, in order, into one candidate list. Groups
// cut in order from one slice, each with a capacity that reaches the end of
// the last — as the negative pass hands its size groups over — are that slice
// already, and come back as it without a copy.
func flatten(groups [][]item.Itemset) []item.Itemset {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	if len(groups) > 0 && cap(groups[0]) >= n {
		whole, at := groups[0][:n:n], 0
		for _, g := range groups {
			if len(g) > 0 && &g[0] != &whole[at] {
				break
			}
			if at += len(g); at == n {
				return whole
			}
		}
	}
	flat := make([]item.Itemset, 0, n)
	for _, g := range groups {
		flat = append(flat, g...)
	}
	return flat
}

// usedItems returns the sorted distinct items of cands.
func usedItems(cands []item.Itemset) item.Itemset {
	seen := make(map[item.Item]struct{})
	var out []item.Item
	for _, c := range cands {
		for _, x := range c {
			if _, ok := seen[x]; !ok {
				seen[x] = struct{}{}
				out = append(out, x)
			}
		}
	}
	return item.SortDedup(out)
}

// Apply applies the shared transform (identity when none is set) to one
// transaction using buf as scratch. It returns the transformed set, valid
// until buf's next use, and the possibly-grown buffer to keep for the next
// transaction.
func (opt Options) Apply(buf []item.Item, raw item.Itemset) (item.Itemset, []item.Item) {
	if opt.TransformInto != nil {
		s := opt.TransformInto(buf[:0], raw)
		return s, s[:0]
	}
	return raw, buf
}

// maxWindowBytes caps the rows the bitmap engine holds at once, budget or no
// budget.
const maxWindowBytes = 256 << 20

// BitmapEngine counts candidates against a vertical TID-bitmap matrix with a
// bitmap row per distinct candidate item: one database scan fills the rows a
// window of transactions at a time, and a candidate's support is the
// popcount of the AND of its rows, summed over the windows. The window is the
// widest (a multiple of 64 transactions, at most the whole database, at most
// maxWindowBytes of rows) that Options.Mem grants; one window — the usual
// case — is a matrix build followed by one counting loop. Here the candidate
// loop, not the scan, is what parallelizes: Options.Parallelism workers shard
// the flattened candidate list. (BuildIndex, which fills the rows an Indexed
// database brings, shards its scan too.)
//
// When Options.Tax is set the rows are ancestor-closure rows and all
// transforms are skipped: the Tax field is the caller's declaration that its
// installed transforms are taxonomy ancestor extensions (possibly filtered
// to candidate items), which the closure fill reproduces exactly. Without
// Tax, the shared transform is applied during the fill; opaque per-group
// transforms are an error.
type BitmapEngine struct{}

// Multi implements Engine.
func (BitmapEngine) Multi(db txdb.DB, groups [][]item.Itemset, transforms []TransformInto, opt Options) ([][]int, error) {
	if transforms != nil && len(transforms) != len(groups) {
		return nil, fmt.Errorf("count: %d transforms for %d groups", len(transforms), len(groups))
	}
	flat := flatten(groups)
	var (
		totals []int
		err    error
	)
	if ix := rowsOf(db, opt.Tax); ix != nil {
		// Rows built and reserved by db's owner.
		totals, err = ix.Counts(flat, opt.Parallelism)
	} else {
		totals, err = countWindows(db, flat, hasPerGroup(transforms), opt)
	}
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(groups))
	off := 0
	for gi, g := range groups {
		out[gi] = totals[off : off+len(g) : off+len(g)]
		off += len(g)
	}
	return out, nil
}

// countWindows scans db once and counts cands window by window.
func countWindows(db txdb.DB, cands []item.Itemset, perGroup bool, opt Options) ([]int, error) {
	if perGroup && opt.Tax == nil {
		return nil, fmt.Errorf("count: bitmap backend cannot honor per-group transforms without Options.Tax")
	}
	used := usedItems(cands)
	width, err := reserveWindow(opt.Mem, db.Count(), used.Len())
	if err != nil {
		return nil, fmt.Errorf("count: bitmap window: %w", err)
	}
	defer opt.Mem.Release(bitmat.EstimateBytes(width, used.Len()))
	m := bitmat.New(used, width)
	var totals []int
	addWindow := func() error {
		counts, err := m.Counts(cands, opt.Parallelism)
		if err != nil {
			return err
		}
		if totals == nil {
			totals = counts
			return nil
		}
		for i, c := range counts {
			totals[i] += c
		}
		return nil
	}
	if err := m.FillWindows(db, opt.Tax, bitmat.Transform(opt.TransformInto), 1, addWindow); err != nil {
		return nil, err
	}
	if err := addWindow(); err != nil {
		return nil, err
	}
	return totals, nil
}

// reserveWindow reserves against mem the widest window of transactions the
// bitmap engine may hold rows for — all n when they fit mem and
// maxWindowBytes, otherwise a multiple of 64 — and returns its width. A
// reservation lost to a concurrent one is retried at half the width; the
// floor is 64 transactions, below which the error wraps govern.ErrOverBudget.
func reserveWindow(mem *govern.Budget, n, rows int) (int, error) {
	words := (n + 63) / 64
	if word := int64(rows) * 8; word > 0 { // bytes per 64 transactions
		fit := min(maxWindowBytes, mem.Available()) / word
		words = int(min(int64(words), max(fit, 1)))
	}
	for {
		width := min(words*64, n)
		err := mem.Reserve(bitmat.EstimateBytes(width, rows))
		if err == nil || words <= 1 {
			return width, err
		}
		words = (words + 1) / 2
	}
}
