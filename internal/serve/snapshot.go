// Package serve is the online rule-serving layer: it turns a mined negative
// rule set into an immutable, item-indexed Snapshot and exposes it over HTTP
// (cmd/negmined) to concurrent readers — the "which customers who buy X are
// unlikely to buy Y?" workflow the paper motivates.
//
// The design is read-optimized: a Snapshot is built once, never mutated, and
// shared by any number of goroutines without locks. Re-mining produces a
// fresh Snapshot that the Server swaps in with an atomic pointer store, so
// queries never observe a half-built index and never block on a writer. A
// failed re-mine keeps the previous Snapshot serving.
//
// Memory layout. Rules live in a flat struct-of-arrays arena: every
// rulestore.Entry field is packed into parallel slices indexed by RuleID,
// with item names interned to dense int32 ids and both rule sides stored in
// two shared flat slices — no per-rule heap objects, no pointer chasing.
// Beside them sits each rule's JSON, rendered once at build time, so the
// HTTP handlers answer by concatenating bytes (render.go).
// RuleID order is serving-rank order (descending RI, ties by signature), so
// "all rules with RI ≥ t" is the id prefix [0, k) found by one binary
// search, and enumerating a posting list in ascending id order yields rank
// order for free. A rule store is sorted by signature already, so the build
// ranks by sorting store positions once: no entry is copied, no signature
// is built.
//
// The two per-item indexes — antecedent, and the taxonomy-ancestor "reach"
// index (rules naming the item or an ancestor on either side) — are derived
// from the arena, the same way on build and on open (index). They are
// compressed posting lists over RuleIDs: dense word-packed rows for frequent
// items, sorted id arrays for rare ones, and shared rows for taxonomy nodes
// whose reach equals an ancestor's. QueryItem is a rank-select walk of one
// reach posting; Score ORs antecedent postings into a pooled scratch bitmap
// and subset-checks candidates against a bitset of basket-satisfied items.
// Both paths are allocation-free in steady state: callers supply result
// buffers and scratch comes from a sync.Pool.
package serve

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"
	"time"

	"negmine/internal/bitmat"
	"negmine/internal/item"
	"negmine/internal/rulestore"
	"negmine/internal/taxonomy"
)

// RuleID identifies one rule in a Snapshot. Ids are dense and assigned in
// serving-rank order: RuleID 0 is the highest-RI rule, ties broken by
// signature, so sorting ids is sorting by rank.
type RuleID int32

// posting locates one item's list of rule ids in its index's backing
// arrays, in the smaller of two forms: n ascending ids at ids[off:off+n]
// (sparse, words == 0), or a word-packed bitmap trimmed of trailing zero
// words at words[off:off+words] (dense). n == 0 is the empty list.
type posting struct {
	off, n, words uint32
}

// postingBytes is the size of a posting, for the /metrics byte counts.
const postingBytes = 12

// postingIndex is one posting per interned item id over two shared backing
// arrays. A taxonomy node that shares an ancestor's reach holds a copy of
// that ancestor's posting.
type postingIndex struct {
	items []posting
	ids   []int32
	words []uint64
}

// Snapshot is one immutable, fully-indexed rule set. All methods are safe
// for concurrent use; none mutate the receiver.
type Snapshot struct {
	// Rule arena: parallel slices indexed by RuleID (struct-of-arrays).
	ri       []float64
	expected []float64
	actual   []float64
	// off has 2n+1 entries: rule i's antecedent occupies
	// side[off[2i]:off[2i+1]] and its consequent side[off[2i+1]:off[2i+2]]
	// of the two flat side arrays (names sorted within each side, ids
	// parallel to names).
	off       []uint32
	sideIDs   []int32
	sideNames []string

	// Rendered rules (render.go), derived from the above and as immutable:
	// rule i's JSON fragment is frag[fragOff[i]:fragOff[i+1]].
	frag    []byte
	fragOff []uint64

	// Item intern table and the flattened taxonomy-ancestor chains:
	// item id x's ancestors (nearest-first) are ancIDs[ancOff[x]:ancOff[x+1]].
	itemID map[string]int32
	names  []string
	ancOff []uint32
	ancIDs []int32

	// Posting-list indexes derived from the above (index): ante matches the
	// rules naming the item in their antecedent; reach those naming the item
	// or any ancestor of it on either side, making QueryItem one walk.
	ante, reach postingIndex
	named       int // items some rule names

	ruleWords  int   // words per rule bitmap: ceil(len(ri)/64)
	itemWords  int   // words per item bitset: ceil(len(names)/64)
	arenaBytes int64 // arena slice footprint (headers + payload, excl. string bytes)
	indexBytes int64 // posting-list footprint

	scratch sync.Pool // *queryScratch

	built    time.Time     // when the snapshot finished building
	buildDur time.Duration // how long indexing (or snapshot loading) took
	source   string        // human-readable provenance ("report foo.json", "mined baskets.txt")
	minSup   float64       // thresholds the rule set was mined at (0 if unknown)
	minRI    float64

	generation uint64 // artifact-store generation (0 when not from/in a store)
	sourceKind string // "mined", "json", "ingest" or "mmap"
	shard      string // cluster shard label "k/n" ("" when unsharded)

	// Ingest watermark: the last transaction id whose effect is visible in
	// this snapshot's rules and the wall-clock time it was appended. Zero
	// for snapshots not built from a live log (batch mines, mmap boots).
	wmTID int64
	wmAt  time.Time
}

// queryScratch is the pooled per-query working set: a rule bitmap for
// accumulating candidate ids, an item bitset for the basket-satisfied set,
// and the list of marked item ids (so Score walks only what it set).
type queryScratch struct {
	rules []uint64
	items []uint64
	ids   []int32
}

// newScratch returns the scratch pool's constructor for a snapshot of the
// given bitmap widths. It takes the widths, not the *Snapshot: the pool is a
// field of the snapshot, so a constructor that captured the snapshot would
// make it reachable from itself, and the finalizer that unmaps a file-backed
// snapshot (OpenSnapshotFile) never runs on such a cycle.
func newScratch(ruleWords, itemWords int) func() any {
	return func() any {
		return &queryScratch{
			rules: make([]uint64, ruleWords),
			items: make([]uint64, itemWords),
			ids:   make([]int32, 0, 64),
		}
	}
}

// SnapshotInfo is the metadata block surfaced by /healthz and /metrics.
type SnapshotInfo struct {
	Rules        int       `json:"rules"`
	IndexedItems int       `json:"indexedItems"`
	ArenaBytes   int64     `json:"arenaBytes"`
	IndexBytes   int64     `json:"indexBytes"`
	Built        time.Time `json:"built"`
	BuildSeconds float64   `json:"buildSeconds"` // index-build time, or snapshot-load time for mmap sources
	Source       string    `json:"source,omitempty"`
	SourceKind   string    `json:"sourceKind,omitempty"` // mined | json | ingest | mmap
	Generation   uint64    `json:"generation,omitempty"` // artifact-store generation
	Shard        string    `json:"shard,omitempty"`      // cluster shard label "k/n"
	MinSupport   float64   `json:"minSupport,omitempty"`
	MinRI        float64   `json:"minRI,omitempty"`
}

// IndexInfo describes one posting-list index for /metrics: how many items
// have entries, total posting entries (set bits), the dense/sparse/shared
// row split, and resident bytes.
type IndexInfo struct {
	Items      int   `json:"items"`
	Postings   int64 `json:"postings"`
	DenseRows  int   `json:"denseRows"`
	SparseRows int   `json:"sparseRows"`
	SharedRows int   `json:"sharedRows"`
	Bytes      int64 `json:"bytes"`
}

// LayoutInfo is the /metrics block describing the snapshot's memory layout.
type LayoutInfo struct {
	ArenaBytes int64     `json:"arenaBytes"`
	Antecedent IndexInfo `json:"antecedent"`
	Reach      IndexInfo `json:"reach"`
	// Consequent is always zero: no snapshot has a consequent index.
	// Kept only because benchmark/batch.go:328 reads it; ROADMAP item 1 deletes it.
	Consequent IndexInfo `json:"-"`
}

// Meta carries snapshot provenance recorded at build time.
type Meta struct {
	Source     string  // where the rules came from
	MinSupport float64 // mining thresholds, if known
	MinRI      float64
	// Keep filters rules into the snapshot: a rule is indexed only when
	// Keep(antecedent, consequent) returns true; nil keeps everything.
	// Cluster sharding passes the shard-ownership predicate here so each
	// shard's snapshot holds exactly its partition of the rule set, while
	// the taxonomy is still interned in full (expansion answers stay
	// identical on every shard).
	Keep func(antecedent, consequent []string) bool
}

// BuildSnapshot indexes a rule store into the flat arena + posting-list
// layout. tax supplies the ancestor index and may be nil (queries then match
// exact item names only). meta describes provenance; its zero value is fine.
func BuildSnapshot(st *rulestore.Store, tax *taxonomy.Taxonomy, meta Meta) *Snapshot {
	start := time.Now()
	// ids are the kept rules' store positions, ranked once: descending RI,
	// ties in store position, which is signature order.
	all := st.All()
	ids := make([]int32, 0, len(all))
	for i := range all {
		if meta.Keep == nil || meta.Keep(all[i].Antecedent, all[i].Consequent) {
			ids = append(ids, int32(i))
		}
	}
	slices.SortFunc(ids, func(a, b int32) int { return cmp.Or(cmp.Compare(all[b].RI, all[a].RI), cmp.Compare(a, b)) })

	s := &Snapshot{
		source: meta.Source,
		minSup: meta.MinSupport,
		minRI:  meta.MinRI,
	}
	s.vocabulary(tax, all, ids)
	s.buildArena(all, ids)
	s.buildFragments()
	s.index()
	s.buildDur = time.Since(start)
	s.built = time.Now()
	return s
}

// vocabulary sets the item ids the snapshot indexes by: the taxonomy's nodes
// first, in taxonomy id order, so expansion works for every node the
// hierarchy knows (a leaf with no rules of its own still reaches its
// category's rules) and interned id == taxonomy id; then any name only a rule
// knows, in the order ids visits all's rules, without ancestors. The
// taxonomy's part is tax.Interned(), shared read-only by every snapshot built
// against tax; only a rule set naming an item outside it copies it to extend
// the copy.
func (s *Snapshot) vocabulary(tax *taxonomy.Taxonomy, all []rulestore.Entry, ids []int32) {
	shared := tax != nil
	if shared {
		v := tax.Interned()
		s.itemID, s.names, s.ancOff, s.ancIDs = v.ID, v.Names, v.AncOff, v.AncIDs
	} else {
		s.itemID, s.ancOff = map[string]int32{}, []uint32{0}
	}
	for _, id := range ids {
		for _, side := range [2][]string{all[id].Antecedent, all[id].Consequent} {
			for _, name := range side {
				if _, ok := s.itemID[name]; ok {
					continue
				}
				if shared {
					s.itemID, s.names, s.ancOff = maps.Clone(s.itemID), slices.Clip(s.names), slices.Clip(s.ancOff)
					shared = false
				}
				s.itemID[name] = int32(len(s.names))
				s.names = append(s.names, name)
				s.ancOff = append(s.ancOff, uint32(len(s.ancIDs)))
			}
		}
	}
}

// ancChain returns item id x's interned ancestor ids, nearest-first
// (shared subslice).
func (s *Snapshot) ancChain(x int32) []int32 {
	return s.ancIDs[s.ancOff[x]:s.ancOff[x+1]]
}

// buildArena packs the fields of all's rules, in the order ids gives, into
// the parallel arena slices: rule all[ids[i]] becomes RuleID i.
func (s *Snapshot) buildArena(all []rulestore.Entry, ids []int32) {
	n := len(ids)
	total := 0
	for _, id := range ids {
		total += len(all[id].Antecedent) + len(all[id].Consequent)
	}
	s.ri = make([]float64, n)
	s.expected = make([]float64, n)
	s.actual = make([]float64, n)
	s.off = make([]uint32, 2*n+1)
	s.sideIDs = make([]int32, 0, total)
	s.sideNames = make([]string, 0, total)
	for i, id := range ids {
		e := &all[id]
		s.ri[i] = e.RI
		s.expected[i] = e.Expected
		s.actual[i] = e.Actual
		s.off[2*i] = uint32(len(s.sideIDs))
		for _, name := range e.Antecedent {
			s.sideIDs = append(s.sideIDs, s.itemID[name])
			s.sideNames = append(s.sideNames, name)
		}
		s.off[2*i+1] = uint32(len(s.sideIDs))
		for _, name := range e.Consequent {
			s.sideIDs = append(s.sideIDs, s.itemID[name])
			s.sideNames = append(s.sideNames, name)
		}
	}
	s.off[2*n] = uint32(len(s.sideIDs))
}

// index derives what a snapshot computes from its arena rather than
// storing: the two posting indexes, the byte counts /metrics reports and the
// query scratch pool. BuildSnapshot and SnapshotFromImage both end here, so a
// built snapshot and the same one opened from its file index alike. It reads
// only off, sideIDs and the ancestor chains, and does not panic on any arena
// snapfmt.Decode accepts (FuzzOpenSnapshot).
//
// Only the items some rule names get rows, staged as bitmaps over RuleIDs:
// one of the rules naming the item in their antecedent, one of those naming
// it on either side. An item's reach is its either-side row ORed with its
// named ancestors'; a node no rule names reaches exactly what its nearest
// named ancestor does, and shares that posting.
func (s *Snapshot) index() {
	n, m := len(s.ri), len(s.names)
	s.ruleWords, s.itemWords = (n+63)/64, (m+63)/64

	isNamed := make([]bool, m)
	for _, id := range s.sideIDs {
		isNamed[id] = true
	}
	var named item.Itemset
	for id, ok := range isNamed {
		if ok {
			named = append(named, item.Item(id))
		}
	}
	s.named = len(named)
	anteM, sideM := bitmat.New(named, n), bitmat.New(named, n)
	for i := 0; i < n; i++ {
		for _, id := range s.sideIDs[s.off[2*i]:s.off[2*i+1]] {
			anteM.Set(item.Item(id), i)
		}
		for _, id := range s.sideIDs[s.off[2*i]:s.off[2*i+2]] {
			sideM.Set(item.Item(id), i)
		}
	}

	s.ante = postingIndex{items: make([]posting, m)}
	s.reach = postingIndex{items: make([]posting, m)}
	row := make([]uint64, s.ruleWords)
	for _, x := range named {
		s.ante.items[x] = s.ante.add(anteM.Row(x))
		copy(row, sideM.Row(x))
		for _, a := range s.ancChain(int32(x)) {
			if isNamed[a] {
				bitmat.OrInto(row, sideM.Row(item.Item(a)))
			}
		}
		s.reach.items[x] = s.reach.add(row)
	}
	for id, ok := range isNamed {
		if ok {
			continue
		}
		for _, a := range s.ancChain(int32(id)) {
			if isNamed[a] {
				s.reach.items[id] = s.reach.items[a]
				break
			}
		}
	}

	s.indexBytes = s.ante.bytes() + s.reach.bytes()
	s.arenaBytes = int64(n)*(3*8) + int64(len(s.off))*4 +
		int64(len(s.sideIDs))*4 + int64(len(s.sideNames))*16 +
		int64(m)*16 + int64(len(s.ancOff))*4 + int64(len(s.ancIDs))*4 +
		s.renderedBytes()
	s.scratch.New = newScratch(s.ruleWords, s.itemWords)
}

// add appends a bitmap row's list to the backing arrays in whichever form
// is smaller — the paper-scale reality is a few dense category-level items
// over a long sparse tail of leaves — and returns its posting.
func (x *postingIndex) add(row []uint64) posting {
	n := bitmat.PopCount(row)
	if n == 0 {
		return posting{}
	}
	last := len(row) - 1
	for row[last] == 0 {
		last--
	}
	if 4*n < 8*(last+1) {
		p := posting{off: uint32(len(x.ids)), n: uint32(n)}
		for i := bitmat.NextSet(row, 0); i >= 0; i = bitmat.NextSet(row, i+1) {
			x.ids = append(x.ids, int32(i))
		}
		return p
	}
	p := posting{off: uint32(len(x.words)), n: uint32(n), words: uint32(last + 1)}
	x.words = append(x.words, row[:last+1]...)
	return p
}

// sparse and dense return posting p's elements (p must be of that form).
func (x *postingIndex) sparse(p posting) []int32 { return x.ids[p.off : p.off+p.n] }
func (x *postingIndex) dense(p posting) []uint64 { return x.words[p.off : p.off+p.words] }

func (x *postingIndex) bytes() int64 {
	return int64(len(x.ids))*4 + int64(len(x.words))*8 + int64(len(x.items))*postingBytes
}

// info summarizes the index for /metrics. A shared posting is counted once
// as dense or sparse and thereafter as shared, so Bytes is resident memory,
// not the sum over items.
func (x *postingIndex) info() IndexInfo {
	var out IndexInfo
	seen := map[posting]bool{}
	for _, p := range x.items {
		if p.n == 0 {
			continue
		}
		out.Items++
		out.Postings += int64(p.n)
		switch {
		case seen[p]:
			out.SharedRows++
		case p.words == 0:
			out.SparseRows++
			out.Bytes += int64(p.n) * 4
		default:
			out.DenseRows++
			out.Bytes += int64(p.words) * 8
		}
		seen[p] = true
	}
	return out
}

// Len returns the number of rules in the snapshot.
func (s *Snapshot) Len() int { return len(s.ri) }

// Entry materializes rule id as a rulestore.Entry. The side slices are
// shared subslices of the arena — callers must not modify them. Entry is
// allocation-free.
func (s *Snapshot) Entry(id RuleID) rulestore.Entry {
	a, b, c := s.off[2*id], s.off[2*id+1], s.off[2*id+2]
	return rulestore.Entry{
		Antecedent: s.sideNames[a:b:b],
		Consequent: s.sideNames[b:c:c],
		RI:         s.ri[id],
		Expected:   s.expected[id],
		Actual:     s.actual[id],
	}
}

// Rules returns all rules in serving order (descending RI, ties by
// signature). The entries' side slices are shared with the arena; callers
// must not modify them.
func (s *Snapshot) Rules() []rulestore.Entry {
	out := make([]rulestore.Entry, s.Len())
	for i := range out {
		out[i] = s.Entry(RuleID(i))
	}
	return out
}

// Info summarizes the snapshot for health and metrics endpoints.
func (s *Snapshot) Info() SnapshotInfo {
	return SnapshotInfo{
		Rules:        s.Len(),
		IndexedItems: s.named,
		ArenaBytes:   s.arenaBytes,
		IndexBytes:   s.indexBytes,
		Built:        s.built,
		BuildSeconds: s.buildDur.Seconds(),
		Source:       s.source,
		SourceKind:   s.sourceKind,
		Generation:   s.generation,
		Shard:        s.shard,
		MinSupport:   s.minSup,
		MinRI:        s.minRI,
	}
}

// SetProvenance stamps the snapshot's artifact-store generation and source
// kind ("mined", "json", "ingest", "mmap"). It must be called before the
// snapshot is published to concurrent readers — typically right after
// BuildSnapshot, inside the load function.
func (s *Snapshot) SetProvenance(gen uint64, kind string) {
	s.generation = gen
	s.sourceKind = kind
}

// SetShard stamps the snapshot with its cluster shard label ("shard/width").
// Like SetProvenance it must be called before the snapshot is published to
// concurrent readers; the label is in-memory only (an .nsnap file re-loaded
// elsewhere is re-stamped by whoever loads it).
func (s *Snapshot) SetShard(shard, width int) {
	s.shard = fmt.Sprintf("%d/%d", shard, width)
}

// Generation returns the snapshot's artifact-store generation (0 when the
// snapshot neither came from nor was persisted to a store).
func (s *Snapshot) Generation() uint64 { return s.generation }

// SourceKind returns how the snapshot came to be: "mined", "json",
// "ingest" or "mmap".
func (s *Snapshot) SourceKind() string { return s.sourceKind }

// Layout describes the arena and posting-list indexes for /metrics.
func (s *Snapshot) Layout() LayoutInfo {
	return LayoutInfo{
		ArenaBytes: s.arenaBytes,
		Antecedent: s.ante.info(),
		Reach:      s.reach.info(),
	}
}

// Age returns how long ago the snapshot was built.
func (s *Snapshot) Age() time.Duration { return time.Since(s.built) }

// SetWatermark stamps the snapshot with the ingest watermark it covers: the
// last transaction id visible in this snapshot's rules and the wall-clock
// time that transaction was appended. Like SetProvenance it must be called
// before the snapshot is published to concurrent readers.
func (s *Snapshot) SetWatermark(tid int64, at time.Time) {
	s.wmTID = tid
	s.wmAt = at
}

// VisibleWatermark returns the last ingested transaction id visible in the
// snapshot's rules, or 0 when unknown (batch mines, mmap boots).
func (s *Snapshot) VisibleWatermark() int64 { return s.wmTID }

// Freshness returns how stale the served rules are: now minus the append
// time of the newest ingested transaction visible in the snapshot. A
// snapshot without a watermark — a batch mine, an mmap boot, a replica that
// has never mined locally — falls back to its build time, which is exactly
// the clock Age reads (including the .nsnap CreatedNs/mtime fallback), so
// age and freshness can never disagree about which clock they are on.
func (s *Snapshot) Freshness() time.Duration {
	if !s.wmAt.IsZero() {
		return time.Since(s.wmAt)
	}
	return time.Since(s.built)
}

// Expand appends name and its taxonomy ancestors (nearest-first) to dst and
// returns the extended slice. Unknown names expand to themselves. Expand is
// allocation-free when dst has capacity.
func (s *Snapshot) Expand(dst []string, name string) []string {
	dst = append(dst, name)
	if id, ok := s.itemID[name]; ok {
		for _, a := range s.ancChain(id) {
			dst = append(dst, s.names[a])
		}
	}
	return dst
}

// riPrefix returns the number of leading rules with RI ≥ minRI. Rules are
// RI-descending, so [0, k) is exactly the id range any query at this
// threshold may return.
func (s *Snapshot) riPrefix(minRI float64) int {
	lo, hi := 0, len(s.ri)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ri[mid] >= minRI {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ctxCheckEvery is how many posting-list words a query scans between
// deadline polls: often enough that a cancelled request stops promptly,
// rarely enough that the check is free on small snapshots.
const ctxCheckEvery = 1024

// QueryItem appends the ids of rules mentioning name — or any taxonomy
// ancestor of name — on either side, with RI ≥ minRI, to dst in serving
// order (descending RI, ties by signature) and returns the extended slice.
// limit ≤ 0 means unlimited. The call is allocation-free in steady state
// when dst has capacity.
func (s *Snapshot) QueryItem(dst []RuleID, name string, minRI float64, limit int) []RuleID {
	out, _ := s.QueryItemCtx(context.Background(), dst, name, minRI, limit)
	return out
}

// QueryItemCtx is QueryItem honoring a request deadline: a query over a huge
// snapshot checks ctx periodically and aborts with ctx.Err() instead of
// holding a handler goroutine past its budget. It is one rank-select walk
// over the item's reach posting, bounded by the RI prefix.
func (s *Snapshot) QueryItemCtx(ctx context.Context, dst []RuleID, name string, minRI float64, limit int) ([]RuleID, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	id, ok := s.itemID[name]
	if !ok {
		return dst, nil
	}
	k := s.riPrefix(minRI)
	if k == 0 {
		return dst, nil
	}
	p := s.reach.items[id]
	if p.n == 0 {
		return dst, nil
	}
	count := 0
	if p.words == 0 {
		for j, i := range s.reach.sparse(p) {
			if int(i) >= k || (limit > 0 && count >= limit) {
				break
			}
			if j&(ctxCheckEvery-1) == ctxCheckEvery-1 {
				if err := ctx.Err(); err != nil {
					return dst, err
				}
			}
			dst = append(dst, RuleID(i))
			count++
		}
		return dst, nil
	}
	words := s.reach.dense(p)
	kw := min((k+63)/64, len(words))
	for w := 0; w < kw; w++ {
		if w&(ctxCheckEvery-1) == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
		}
		word := words[w]
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i >= k || (limit > 0 && count >= limit) {
				return dst, nil
			}
			dst = append(dst, RuleID(i))
			count++
			word &= word - 1
		}
	}
	return dst, nil
}

// Score appends the ids of rules whose full antecedent is covered by the
// basket — extended with taxonomy ancestors, so a basket containing pepsi
// supports soft-drinks — and whose RI ≥ minRI, to dst in serving order.
// limit ≤ 0 means unlimited. The call is allocation-free in steady state
// when dst has capacity (scratch bitmaps come from a pool).
func (s *Snapshot) Score(dst []RuleID, basket []string, minRI float64, limit int) []RuleID {
	out, _ := s.ScoreCtx(context.Background(), dst, basket, minRI, limit)
	return out
}

// ScoreCtx is Score honoring a request deadline, like QueryItemCtx.
func (s *Snapshot) ScoreCtx(ctx context.Context, dst []RuleID, basket []string, minRI float64, limit int) ([]RuleID, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	k := s.riPrefix(minRI)
	if k == 0 || len(s.names) == 0 {
		return dst, nil
	}
	sc := s.scratch.Get().(*queryScratch)
	defer s.scratch.Put(sc)
	clear(sc.items)
	sc.ids = sc.ids[:0]

	// Satisfied set: every item id the basket supports (items + ancestors),
	// recorded both as a bitset (for O(1) coverage checks) and as the marked
	// id list (so the candidate OR walks only satisfied postings).
	mark := func(id int32) {
		w, b := id>>6, uint(id&63)
		if sc.items[w]&(1<<b) == 0 {
			sc.items[w] |= 1 << b
			sc.ids = append(sc.ids, id)
		}
	}
	for _, bname := range basket {
		id, ok := s.itemID[bname]
		if !ok {
			continue
		}
		mark(id)
		for _, a := range s.ancChain(id) {
			mark(a)
		}
	}
	if len(sc.ids) == 0 {
		return dst, nil
	}

	// Candidate rules: the OR of the satisfied items' antecedent postings,
	// restricted to the RI prefix.
	kw := (k + 63) / 64
	acc := sc.rules[:kw]
	clear(acc)
	for _, id := range sc.ids {
		s.ante.orInto(acc, id, k)
	}

	// Walk candidates in ascending id (= rank) order; a candidate matches
	// when every antecedent item id is in the satisfied bitset.
	count := 0
	for w := 0; w < kw; w++ {
		if w&(ctxCheckEvery-1) == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
		}
		word := acc[w]
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if i >= k {
				return dst, nil
			}
			if !s.covered(RuleID(i), sc.items) {
				continue
			}
			dst = append(dst, RuleID(i))
			if count++; limit > 0 && count >= limit {
				return dst, nil
			}
		}
	}
	return dst, nil
}

// covered reports whether every antecedent item of rule id is set in the
// satisfied-item bitset.
func (s *Snapshot) covered(id RuleID, items []uint64) bool {
	for _, a := range s.sideIDs[s.off[2*id]:s.off[2*id+1]] {
		if items[a>>6]&(1<<uint(a&63)) == 0 {
			return false
		}
	}
	return true
}

// orInto folds item id's posting into the accumulator bitmap, ignoring rule
// ids ≥ k (acc has ceil(k/64) words).
func (x *postingIndex) orInto(acc []uint64, id int32, k int) {
	p := x.items[id]
	if p.words == 0 {
		for _, i := range x.sparse(p) {
			if int(i) >= k {
				return
			}
			acc[i>>6] |= 1 << uint(i&63)
		}
		return
	}
	words := x.dense(p)
	for w := range min(len(words), len(acc)) {
		acc[w] |= words[w]
	}
	// Bits of the last word beyond k are cleared lazily: the candidate walk
	// stops at k, so stray high bits in word k/64 are never emitted.
}

// Match is one rule triggered by a basket: the customer's basket covers the
// whole antecedent, so the rule predicts they are unlikely to also buy the
// consequent.
type Match struct {
	Rule rulestore.Entry
	// Triggers maps each antecedent item to the basket item that satisfied
	// it (the item itself, or the basket descendant whose ancestor chain
	// reached it).
	Triggers map[string]string
}

// Triggers maps each antecedent item of rule id to the first basket item
// (in basket order) that satisfies it — the item itself or a descendant.
// It allocates a map, for Matches and other callers off the request path;
// the /score handler renders the same attribution straight from the arena
// (appendElem) and is tested against this.
func (s *Snapshot) Triggers(id RuleID, basket []string) map[string]string {
	lo, hi := s.off[2*id], s.off[2*id+1]
	trig := make(map[string]string, hi-lo)
	for j := lo; j < hi; j++ {
		a := s.sideIDs[j]
		for _, b := range basket {
			if s.supports(b, a) {
				trig[s.sideNames[j]] = b
				break
			}
		}
	}
	return trig
}

// supports reports whether basket item b satisfies item id a: b is a itself
// or a descendant of a.
func (s *Snapshot) supports(b string, a int32) bool {
	id, ok := s.itemID[b]
	return ok && s.supportsID(id, a)
}

// supportsID is supports for an interned basket item.
func (s *Snapshot) supportsID(id, a int32) bool {
	if id == a {
		return true
	}
	for _, y := range s.ancChain(id) {
		if y == a {
			return true
		}
	}
	return false
}

// QueryEntries is QueryItem materialized as entries — the allocating
// convenience for callers outside the hot path.
func (s *Snapshot) QueryEntries(name string, minRI float64, limit int) []rulestore.Entry {
	ids := s.QueryItem(nil, name, minRI, limit)
	out := make([]rulestore.Entry, len(ids))
	for i, id := range ids {
		out[i] = s.Entry(id)
	}
	return out
}

// QueryShared is QueryItemCtx into a fresh slice.
// Kept only because benchmark/serveread.go calls it; ROADMAP item 1 deletes it.
func (s *Snapshot) QueryShared(ctx context.Context, name string, minRI float64, limit int) ([]RuleID, error) {
	return s.QueryItemCtx(ctx, nil, name, minRI, limit)
}

// Matches is Score materialized as Match values with trigger attribution —
// the allocating convenience for callers outside the hot path.
func (s *Snapshot) Matches(basket []string, minRI float64, limit int) []Match {
	ids := s.Score(nil, basket, minRI, limit)
	out := make([]Match, len(ids))
	for i, id := range ids {
		out[i] = Match{Rule: s.Entry(id), Triggers: s.Triggers(id, basket)}
	}
	return out
}
