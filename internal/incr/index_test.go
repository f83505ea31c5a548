package incr

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"negmine/internal/apriori"
	"negmine/internal/bitmat"
	"negmine/internal/count"
	"negmine/internal/datagen"
	"negmine/internal/fault"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/negative"
	"negmine/internal/seglog"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// driftData generates a non-stationary stream: zipfian leaf popularity whose
// rank→item assignment rotates every quarter of the stream, so late segments
// make items large that early segments never saw as such, and vice versa.
func driftData(t testing.TB, n int, seed int64) (*taxonomy.Taxonomy, []item.Itemset) {
	t.Helper()
	p := datagen.Scaled(datagen.Short(), 50)
	p.NumTransactions = n
	p.Seed = seed
	tax, db, err := datagen.GenerateDrift(p, datagen.DriftParams{Exponent: 1.1, Phases: 4})
	if err != nil {
		t.Fatal(err)
	}
	return tax, basketsOf(db)
}

func openLog(t testing.TB) *seglog.Log {
	t.Helper()
	log, err := seglog.Open(t.TempDir(), seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// TestDriftingStreamReadsOnlyNewSegments is the acceptance check for the
// refresh cost model, with no premise about the data: seeded drifting streams
// are cut at random into 1–40 segments and refreshed after every one. Every
// refresh must equal a batch mine of the log so far, under both scanning
// backends, and every refresh after the first must read exactly the one new
// segment — never an old one. A scripted stream then walks the carried state
// through everything that can make it stale (crossingStream), under two
// refresh schedules.
func TestDriftingStreamReadsOnlyNewSegments(t *testing.T) {
	// MaxK keeps the first refreshes tractable: over a handful of
	// transactions the support floor is one transaction and every subset of
	// every basket is large.
	base := miningOpts()
	base.Gen.MaxK = 3
	rules := 0
	for seed := int64(1); seed <= 3; seed++ {
		tax, baskets := driftData(t, 480, seed)
		rng := rand.New(rand.NewSource(seed))
		cuts := append(rng.Perm(len(baskets) - 1)[:rng.Intn(40)], len(baskets)-1)
		sortInts(cuts)
		log := openLog(t)
		base.Count.Mem = govern.NewBudget(0) // unlimited; checkIndex reads this miner's ledger
		base.Gen.Count.Mem = base.Count.Mem
		m := New(tax, base)
		lo := 0
		for i, cut := range cuts {
			fillLog(t, log, baskets[lo:cut+1], cut+1-lo, 0)
			lo = cut + 1
			got, err := m.Refresh(log)
			if err != nil {
				t.Fatal(err)
			}
			rules += len(got.Rules)
			st := m.LastStats()
			if st.NewSegments != 1 || st.OldSegmentScans != 0 || st.Segments != i+1 || st.N != lo {
				t.Fatalf("seed %d, refresh %d of %d: stats %+v", seed, i+1, len(cuts), st)
			}
			checkAgainstBatch(t, fmt.Sprintf("seed %d, refresh %d of %d", seed, i+1, len(cuts)), log, tax, base, got)
			checkIndex(t, m)
		}
	}
	if rules == 0 {
		t.Fatal("no refresh mined a rule — the equivalence check is vacuous")
	}

	for _, sched := range []struct {
		workers int
		rounds  []int
		nPrev   []int // each must start some refresh's tail
	}{
		// One transaction, two, a multiple of 64, one short of the next and
		// on it, nothing, then rounds of 50–150 and one of 10 000.
		{1, []int{1, 1, 62, 63, 1, 0, 72}, []int{1, 2, 64, 127, 128}},
		// First refresh at 200: z1, seen at 0, 64 and 128, is still a gap
		// list when phase two makes it large.
		{4, []int{200}, nil},
	} {
		base.Count.Parallelism, base.Gen.Count.Parallelism = sched.workers, sched.workers
		rounds := sched.rounds
		for n, i := 200, 0; n < 2500; i++ {
			round := min([]int{100, 150, 50}[i%3], 2500-n)
			rounds, n = append(rounds, round), n+round
		}
		seen := runCrossingStream(t, base, append(rounds, 10000))
		t.Logf("crossing stream, %d workers, %d refreshes: %+v", sched.workers, len(rounds)+1, seen)
		fine := sched.nPrev != nil
		for _, c := range []struct {
			what string
			ok   bool
		}{
			{"z1 was promoted from its gap list after the first refresh", seen.promotedLate || fine},
			{"a refresh with nothing new counted nothing in full", seen.zeroRound || !fine},
			{"a1 was large, went small and came back", seen.a1 >= 3},
			{"{a1, b1} was large, left and came back", seen.pair >= 3},
			{"{a1, b1, c1} was large, left and came back", seen.triple >= 3},
			{"level 3, and its counting passes, came, went and came", seen.level3 >= 3},
			{"most refreshes answered itemsets from the tail", seen.tailed >= len(rounds)/2},
		} {
			if !c.ok {
				t.Fatalf("%d workers: the crossing stream did not cross — not true: %s (%+v)", sched.workers, c.what, seen)
			}
		}
		for _, nPrev := range sched.nPrev {
			if !slices.Contains(seen.tailFrom, nPrev) {
				t.Fatalf("no refresh answered an itemset from the transactions past %d: %v", nPrev, seen.tailFrom)
			}
		}
	}
}

// crossed is what runCrossingStream saw happen. a1, pair, triple and level3
// count the changes of state — large or not — of node a1, of {a1, b1}, of
// {a1, b1, c1} and of level 3, the first appearance included: 3 is there,
// gone, back.
type crossed struct {
	promotedLate, zeroRound  bool
	a1, pair, triple, level3 int
	tailed                   int
	tailFrom                 []int // N_prev of the refreshes that used the tail
}

// runCrossingStream refreshes over crossingStream in the given rounds, checks
// every refresh against the batch miner and the index against itself, and
// reports what the stream exercised.
func runCrossingStream(t *testing.T, opt negative.Options, rounds []int) crossed {
	t.Helper()
	tax, id, baskets := crossingStream(t)
	log := openLog(t)
	opt.Count.Mem = govern.NewBudget(0) // unlimited; checkIndex reads its ledger
	opt.Gen.Count.Mem = opt.Count.Mem
	m := New(tax, opt)
	var seen crossed
	var hadA1, hadPair, hadTriple, hadLevel3 bool
	lo := 0
	for i, round := range rounds {
		if round > 0 {
			fillLog(t, log, baskets[lo:lo+round], round, 0)
		}
		nPrev := lo
		lo += round
		// z1's list before this refresh has a chance to promote it.
		var z1 []int
		if nd := m.idx.nodes; int(id["z1"]) < len(nd) && nd[id["z1"]].row == nil {
			z1 = positionsOf(&nd[id["z1"]], nPrev)
		}
		got, err := m.Refresh(log)
		if err != nil {
			t.Fatal(err)
		}
		where := fmt.Sprintf("crossing stream, refresh %d (N = %d)", i+1, lo)
		st := m.LastStats()
		if want := min(round, 1); st.NewSegments != want || st.OldSegmentScans != 0 || st.N != lo {
			t.Fatalf("%s: stats %+v", where, st)
		}
		checkAgainstBatch(t, where, log, tax, opt, got)
		checkIndex(t, m)

		if i > 0 && st.RowsPromoted > 0 && m.idx.nodes[id["z1"]].row != nil && len(z1) >= 3 {
			if !slices.Equal(z1[:3], []int{0, 64, 128}) {
				t.Fatalf("%s: z1 promoted from a list starting %v", where, z1[:3])
			}
			seen.promotedLate = true
		}
		// flip notes a change of state and reports an arrival.
		flip := func(had *bool, n *int, has bool) bool {
			if has == *had {
				return false
			}
			*had, *n = has, *n+1
			return has
		}
		large := func(names ...string) bool {
			var s []item.Item
			for _, n := range names {
				s = append(s, id[n])
			}
			_, ok := got.Large.Table.Count(item.New(s...))
			return ok
		}
		flip(&hadA1, &seen.a1, large("a1"))
		flip(&hadLevel3, &seen.level3, len(got.Large.Levels) >= 3)
		// An itemset back among the candidates was last counted some
		// refreshes ago, if ever: its carried count is gone, not stale — a
		// triple is counted in full, and a pair, never carried, is read off
		// the pair table, which every refresh brings up to date.
		pair, triple := flip(&hadPair, &seen.pair, large("a1", "b1")), flip(&hadTriple, &seen.triple, large("a1", "b1", "c1"))
		if triple && st.FullSets == 0 {
			t.Fatalf("%s: {a1, b1, c1} came back and was not counted in full: %+v", where, st)
		}
		if pair {
			a, b := &m.idx.nodes[id["a1"]], &m.idx.nodes[id["b1"]]
			n, _ := got.Large.Table.Count(item.New(id["a1"], id["b1"]))
			if a.row == nil || b.row == nil || int(m.idx.pairs[bitmat.TriCell(a.slot, b.slot)]) != n {
				t.Fatalf("%s: {a1, b1} came back with support %d; rowed %v %v, table cell %d", where, n, a.row != nil, b.row != nil, m.idx.pairs[bitmat.TriCell(a.slot, b.slot)])
			}
		}
		seen.zeroRound = seen.zeroRound || i > 0 && round == 0 && st.FullSets == 0 && st.TailSets > 0
		if st.TailSets > 0 {
			seen.tailed++
			seen.tailFrom = append(seen.tailFrom, nPrev)
		}
	}
	return seen
}

// crossingStream scripts the stream that exercises what a refresh carries. Its
// phases move single nodes across MinSup (0.15) upward — z1, which the first
// 200 transactions hold at positions 0, 64 and 128 only — downward and back
// (a1, z1), which takes the pair {a1, b1} and the triple {a1, b1, c1} out of
// the candidate lists for a few refreshes and back in; baskets of two
// categories, then three, then two again make level 3 appear, disappear and
// reappear. The first phase pairs A, B and C two at a time, and the second
// basket holds all three, so {A, B, C} is a level-3 candidate from N = 2 on —
// a set the pair table does not answer, carried from refresh to refresh
// across the word boundaries the first schedule cuts at. The last 10 000 are
// for one round.
func crossingStream(t *testing.T) (*taxonomy.Taxonomy, map[string]item.Item, []item.Itemset) {
	t.Helper()
	b := taxonomy.NewBuilder()
	id := map[string]item.Item{}
	for _, cat := range []string{"A", "B", "C", "Z"} {
		for i := 1; i <= 3; i++ {
			name := strings.ToLower(cat) + strconv.Itoa(i)
			_, id[name] = b.Link(cat, name)
		}
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	set := func(names string) item.Itemset {
		var s []item.Item
		for _, n := range strings.Fields(names) {
			s = append(s, id[n])
		}
		return item.New(s...)
	}
	phases := []struct {
		n     int
		kinds []string // drawn uniformly
	}{
		{200, []string{"a1 b1", "a1 b1", "a1 b1", "a2 c2", "b2 c3", "a3 c3", "b3 c2"}}, // two categories a basket: no level 3, C3 = {A B C}
		{300, []string{"a1 b1 c1", "a1 b1 c1", "a1 b1", "c2 z1", "c2 z1", "a2 c3"}},    // level 3 appears; z1 goes large
		{1300, []string{"a2 b2", "a2 b2", "b3", "a3", "a2"}},                           // a1, z1, c-anything go small; level 3 goes
		{700, []string{"a1 b1 c1", "a1 b1 c1", "a1 b1 c1", "z1 c2", "a1 b1"}},          // and all come back
		{10000, []string{"a1 b1 c1", "a1 b1", "a2 b2", "z1 c2", "a3", "b3 c3 z2"}},     // one round
	}
	rng := rand.New(rand.NewSource(23))
	var baskets []item.Itemset
	for _, ph := range phases {
		for i := 0; i < ph.n; i++ {
			baskets = append(baskets, set(ph.kinds[rng.Intn(len(ph.kinds))]))
		}
	}
	for _, pos := range []int{0, 64, 128} {
		baskets[pos] = baskets[pos].With(id["z1"])
	}
	baskets[1] = set("a1 b1 c1")
	return tax, id, baskets
}

// positionsOf lists the positions a node holds among the first n, from its
// row or, through the decoder a promotion uses, from its gap list.
func positionsOf(nd *node, n int) []int {
	row := nd.row
	if row == nil {
		row = make([]uint64, (n+63)/64)
		bitmat.OverRows(item.New(0), [][]uint64{row}, n).SetGaps(0, nd.gaps)
	}
	var pos []int
	for p := bitmat.NextSet(row, 0); p >= 0; p = bitmat.NextSet(row, p+1) {
		pos = append(pos, p)
	}
	return pos
}

// checkIndex checks what the index keeps against itself: a node's row, or its
// gap list decoded, holds exactly the positions its dense count (the pass-1
// count the view hands the miner) says, all below n; every node with a row
// has its own slot, and every cell of the pair table is the AND-popcount of
// its two slots' rows over the n; the carried counts, if the budget had room
// for any, are those of the transactions indexed so far; and the bytes the
// index says it holds are the capacity of what it holds and what the budget's
// ledger has reserved.
func checkIndex(t *testing.T, m *Miner) {
	t.Helper()
	ix := &m.idx
	var rowBytes, gapBytes int64
	if len(ix.singles) != len(ix.nodes) {
		t.Fatalf("%d dense counts for %d nodes", len(ix.singles), len(ix.nodes))
	}
	rowed := 0
	for x := range ix.nodes {
		if nd := &ix.nodes[x]; nd.row != nil {
			rowed++
			if int(nd.slot) >= len(ix.rowed) || ix.rowed[nd.slot] != item.Item(x) {
				t.Fatalf("node %d has a row and slot %d of %v", x, nd.slot, ix.rowed)
			}
		}
	}
	if rowed != len(ix.rowed) || len(ix.pairs) != bitmat.TriCell(int32(rowed), 0) {
		t.Fatalf("%d nodes with rows, %d slots, %d pair cells", rowed, len(ix.rowed), len(ix.pairs))
	}
	words := (ix.n + 63) / 64
	full := func(x item.Item) []uint64 {
		return append(slices.Clone(ix.nodes[x].row), make([]uint64, words)...)[:words]
	}
	for i := range int32(len(ix.rowed)) {
		a := full(ix.rowed[i])
		for j := range i {
			if want := bitmat.AndPopCount(a, full(ix.rowed[j])); int(ix.pairs[bitmat.TriCell(i, j)]) != want {
				t.Fatalf("pair of nodes %d and %d: table %d, rows %d", ix.rowed[i], ix.rowed[j], ix.pairs[bitmat.TriCell(i, j)], want)
			}
		}
	}
	for x := range ix.nodes {
		nd := &ix.nodes[x]
		pos := positionsOf(nd, ix.n)
		rowBytes, gapBytes = rowBytes+8*int64(cap(nd.row)), gapBytes+int64(cap(nd.gaps))
		if nd.row != nil && nd.gaps != nil || len(pos) != ix.singles[x] || nd.fresh != 0 ||
			len(pos) > 0 && (pos[len(pos)-1] >= ix.n || nd.row == nil && pos[len(pos)-1] != int(nd.next)-1) {
			t.Fatalf("node %d: positions %v of %d, count %d (fresh %d, next %d)", x, pos, ix.n, ix.singles[x], nd.fresh, nd.next)
		}
	}
	if ix.counts.N != ix.n && ix.counts.Bytes() != 0 {
		t.Fatalf("index over %d transactions carries %d bytes of counts over %d", ix.n, ix.counts.Bytes(), ix.counts.N)
	}
	pairBytes := 4 * int64(cap(ix.pairs))
	if ix.rowBytes != rowBytes || ix.gapBytes != gapBytes || ix.pairBytes != pairBytes || ix.held != rowBytes+gapBytes+pairBytes {
		t.Fatalf("index says %d + %d + %d bytes of rows, gaps and pairs, %d reserved; it holds %d + %d + %d",
			ix.rowBytes, ix.gapBytes, ix.pairBytes, ix.held, rowBytes, gapBytes, pairBytes)
	}
	if ix.mem != nil && ix.mem.InUse() != ix.held+ix.counts.Bytes() {
		t.Fatalf("ledger has %d bytes in use; the index holds %d of rows, gaps and pairs and %d of counts", ix.mem.InUse(), ix.held, ix.counts.Bytes())
	}
	if st := m.LastStats(); st.IndexBytes != 0 && (st.PairBytes != pairBytes || st.IndexBytes != st.RowBytes+st.PairBytes+st.GapBytes) {
		t.Fatalf("stats say %d bytes of pairs in an index of %d; the table holds %d", st.PairBytes, st.IndexBytes, pairBytes)
	}
}

// TestRecycledSegmentIDForcesRebuild re-presents a segment under an ID the
// index has already covered but with different content — what a follower
// adopting a primary's segments, or a log rebuilt in place, can do. The CRC
// in the covered prefix catches it: one rebuild, exact result.
func TestRecycledSegmentIDForcesRebuild(t *testing.T) {
	tax, baskets := testData(t, 400, 5)
	a, b := openLog(t), openLog(t)
	fillLog(t, a, baskets[:300], 100, 1)
	fillLog(t, b, baskets[:100], 100, 1) // same first segment, byte for byte
	fillLog(t, b, baskets[200:400], 100, 1)
	ea, eb := a.SealedEntries(), b.SealedEntries()
	if ea[0] != eb[0] || ea[1].ID != eb[1].ID || ea[1].CRC == eb[1].CRC {
		t.Fatalf("fixture: want equal first entries and a recycled second ID, got %+v vs %+v", ea, eb)
	}

	m := New(tax, miningOpts())
	if _, err := m.Refresh(a); err != nil {
		t.Fatal(err)
	}
	got, err := m.Refresh(b)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.LastStats(); st.OldSegmentScans != 3 || st.NewSegments != 3 {
		t.Fatalf("recycled ID did not force a rebuild: %+v", st)
	}
	if !bytes.Equal(reportBytes(t, got), reportBytes(t, batchMine(t, b, tax))) {
		t.Fatal("refresh after a recycled segment ID differs from batch")
	}
	if _, err := m.Refresh(b); err != nil {
		t.Fatal(err)
	}
	if st := m.LastStats(); st.OldSegmentScans != 0 || st.NewSegments != 0 {
		t.Fatalf("second refresh rebuilt again: %+v", st)
	}
}

// TestIndexOverBudgetFallsBackToScanning gives the miner a memory budget the
// index — its rows and gap lists — does not fit: the refresh must release it,
// mine the segments by scanning with an identical result, and leave nothing
// reserved. (With room, rows, lists and the carried counts stay reserved from
// one refresh to the next.)
func TestIndexOverBudgetFallsBackToScanning(t *testing.T) {
	tax, baskets := testData(t, 3000, 6)
	log := openLog(t)
	fillLog(t, log, baskets, 500, 1)

	opt := miningOpts()
	opt.Count.Mem = govern.NewBudget(0) // unlimited: measures what the index needs
	opt.Gen.Count.Mem = opt.Count.Mem
	m := New(tax, opt)
	want, err := m.Refresh(log)
	if err != nil {
		t.Fatal(err)
	}
	need := m.LastStats().IndexBytes
	if held := need + m.LastStats().CountBytes; need == 0 || opt.Count.Mem.InUse() != held {
		t.Fatalf("index and counts hold %d bytes, ledger says %d in use", held, opt.Count.Mem.InUse())
	}

	opt.Count.Mem = govern.NewBudget(need - 1)
	opt.Gen.Count.Mem = opt.Count.Mem
	m = New(tax, opt)
	got, err := m.Refresh(log)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
		t.Fatal("scanning fallback differs from the indexed refresh")
	}
	st := m.LastStats()
	if st.IndexBytes != 0 || st.LargeItems != 0 || st.OldSegmentScans < st.Segments {
		t.Fatalf("refresh did not fall back to scanning: %+v", st)
	}
	if opt.Count.Mem.InUse() != 0 || opt.Count.Mem.Denials() == 0 {
		t.Fatalf("after fallback: %d bytes reserved, %d denials", opt.Count.Mem.InUse(), opt.Count.Mem.Denials())
	}
}

// TestRefreshEmptyLog: a log with nothing sealed (seglog refuses an empty
// batch, so there is no such thing as an empty segment) mines to the empty
// result a batch mine of no transactions gives, refresh after refresh.
func TestRefreshEmptyLog(t *testing.T) {
	tax, _ := testData(t, 10, 7)
	log := openLog(t)
	m := New(tax, miningOpts())
	want := batchMine(t, log, tax)
	for i := 0; i < 2; i++ {
		got, err := m.Refresh(log)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rules) != 0 || !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
			t.Fatal("refresh of an empty log differs from the empty batch result")
		}
		if st := m.LastStats(); st.N != 0 || st.Segments != 0 || st.OldSegmentScans != 0 {
			t.Fatalf("stats %+v", st)
		}
	}
}

// TestRefreshStatsPartsSumToDuration checks the stage breakdown accounts for
// the refresh: the seal of the active segment, index append, stage 1 and the
// four negative stages add up to the wall time within 5 %.
func TestRefreshStatsPartsSumToDuration(t *testing.T) {
	tax, baskets := testData(t, 2000, 8)
	log := openLog(t)
	fillLog(t, log, baskets, 500, 0) // all in the active segment: the refresh seals it
	opt := miningOpts()
	opt.MinSupport, opt.Gen.MaxK = 0.08, 3
	m := New(tax, opt)
	if _, err := m.Refresh(log); err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	parts := st.Seal + st.IndexAppend + st.Stage1 + st.CandGen + st.Count + st.RuleGen
	t.Logf("parts %v of %v: %+v", parts, st.Duration, st)
	if diff := (st.Duration - parts).Abs(); diff > st.Duration/20 {
		t.Fatalf("parts sum to %v, Duration is %v (stats %+v)", parts, st.Duration, st)
	}
	if st.Seal <= 0 || st.IndexAppend <= 0 || st.Stage1 <= 0 || st.IndexBytes <= 0 || st.LargeItems <= 0 {
		t.Fatalf("unset stage fields: %+v", st)
	}
}

// TestLastStatsDoesNotWaitForRefresh holds a refresh at the merge failpoint
// for 300 ms: LastStats, which health probes call, must answer meanwhile.
func TestLastStatsDoesNotWaitForRefresh(t *testing.T) {
	tax, baskets := testData(t, 200, 9)
	log := openLog(t)
	fillLog(t, log, baskets, 100, 1)
	m := New(tax, miningOpts())
	if _, err := m.Refresh(log); err != nil {
		t.Fatal(err)
	}
	defer fault.Enable(PointMerge, fault.Sleep(300*time.Millisecond))()
	done := make(chan error, 1)
	go func() {
		_, err := m.Refresh(log)
		done <- err
	}()
	for fault.Hits(PointMerge) == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	st := m.LastStats()
	if took := time.Since(start); took > 20*time.Millisecond {
		t.Errorf("LastStats took %v during a refresh", took)
	}
	if st.N != 200 {
		t.Errorf("mid-refresh LastStats = %+v, want the previous refresh's", st)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRefreshWorkTracksDelta is the gate on what a refresh costs, in counts
// rather than time: one log grown tenfold, 250 transactions a refresh, with
// stream-mixed's options. The words the counting passes and the promotions
// read must follow the 250 — all but a few itemsets were counted one refresh
// ago and are owed only the new positions, or are pairs read off the table,
// which extend kept up with the 250, level 2's among them — and no refresh
// after the first reads an old segment.
func TestRefreshWorkTracksDelta(t *testing.T) {
	const from, round = 5000, 250
	to := 50000
	if testing.Short() {
		to = 20000
	}
	tax, baskets := shortBaskets(t, to)
	log := openLog(t)
	fillLog(t, log, baskets[:from], 1000, 0)
	m := New(tax, streamOpts(2))
	if _, err := m.Refresh(log); err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if st.TailSets != 0 || st.FullSets == 0 || st.RowWords == 0 || st.RowsPromoted != st.LargeItems {
		t.Fatalf("first refresh: %+v", st)
	}
	// promoted checks the table cells a refresh counted from rows: those of
	// the slots it added and no others, so none when it promoted no node.
	promoted := func(where string, st RefreshStats, had int) {
		t.Helper()
		now := int32(len(m.idx.rowed))
		if want := bitmat.TriCell(now, 0) - bitmat.TriCell(int32(had), 0); st.PromotedPairs != want || int(now) != had+st.RowsPromoted || st.FullSets < want {
			t.Fatalf("%s: %d rowed nodes, %d before; counted %d pair cells from rows, want %d: %+v", where, now, had, st.PromotedPairs, want, st)
		}
	}
	promoted("first refresh", st, 0)
	// level2 is C2, the pairs apriori-gen makes of L1, which a refresh
	// reads off the table instead of counting.
	level2 := func(res *negative.Result) (n int64) {
		l1 := res.Large.Levels[0]
		for i, a := range l1 {
			for _, b := range l1[:i] {
				if !tax.IsAncestor(a.Set[0], b.Set[0]) && !tax.IsAncestor(b.Set[0], a.Set[0]) {
					n++
				}
			}
		}
		return n
	}
	var words, tail, full []int64
	var quiet int
	for lo := from; lo < to; lo += round {
		fillLog(t, log, baskets[lo:lo+round], round, 0)
		had := len(m.idx.rowed)
		res, err := m.Refresh(log)
		if err != nil {
			t.Fatal(err)
		}
		st := m.LastStats()
		if st.NewSegments != 1 || st.OldSegmentScans != 0 || st.N != lo+round {
			t.Fatalf("refresh at %d: %+v", lo, st)
		}
		promoted(fmt.Sprintf("refresh at %d", lo), st, had)
		if st.RowsPromoted == 0 {
			quiet++
		}
		if st.IndexBytes != st.RowBytes+st.PairBytes+st.GapBytes || st.RowBytes == 0 || st.PairBytes == 0 || st.GapBytes == 0 || st.CountBytes == 0 {
			t.Fatalf("refresh at %d: index bytes %+v", lo, st)
		}
		words, tail, full = append(words, st.RowWords), append(tail, int64(st.TailSets+st.PairSets)+level2(res)), append(full, int64(st.FullSets))
	}
	sum := func(w []int64) (s int64) {
		for _, x := range w {
			s += x
		}
		return s
	}
	// A node that crosses MinSup brings its pairs with every rowed node,
	// which its promotion counts into the table from rows, and its sets of
	// three, counted in full; steady state is any ten refreshes in a row.
	for i := 0; i+10 <= len(tail); i += 10 {
		if t10, f10 := sum(tail[i:i+10]), sum(full[i:i+10]); float64(t10) < 0.95*float64(t10+f10) {
			t.Fatalf("refreshes %d–%d answered %d of %d itemsets from the tail or the table", i+1, i+10, t10, t10+f10)
		}
	}
	if quiet == 0 {
		t.Fatal("every refresh promoted a node: none showed that a refresh without one counts no pair from rows")
	}
	first, last := sum(words[:10]), sum(words[len(words)-10:])
	t.Logf("row words read: first ten refreshes %d, last ten %d (%.2f×)", first, last, float64(last)/float64(first))
	if float64(last) > 1.5*float64(first) {
		t.Fatalf("the last ten refreshes read %d row words, the first ten %d: the cost follows the log", last, first)
	}
}

// checkPairs fails unless the pair table the index hands the miner — the
// view's PairCounts — is, pair for pair, the one count.BuildIndex fills over
// the transactions log holds, with the same large items.
func checkPairs(t *testing.T, where string, m *Miner, log *seglog.Log) {
	t.Helper()
	var txs []txdb.Transaction
	if err := log.Scan(func(tx txdb.Transaction) error {
		txs = append(txs, txdb.Transaction{TID: tx.TID, Items: tx.Items.Clone()})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db, err := txdb.NewMemDB(txs)
	if err != nil {
		t.Fatal(err)
	}
	minCount := apriori.MinCount(m.opt.MinSupport, db.Count())
	batch, err := count.BuildIndex(db, m.tax, minCount, count.Options{Parallelism: m.opt.Count.Parallelism, Mem: govern.NewBudget(0)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.idx.view(&sealed{views: log.SealedViews(), n: db.Count()}, minCount, m.opt.Count.Parallelism, &RefreshStats{})
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		a, b item.Item
		n    int
	}
	var want, got []cell
	if !batch.Matrix().PairCounts(func(a, b item.Item, n int) { want = append(want, cell{a, b, n}) }) ||
		!v.Matrix().PairCounts(func(a, b item.Item, n int) { got = append(got, cell{a, b, n}) }) {
		t.Fatalf("%s: no pair table (batch %v, view %v)", where, batch.Matrix().HasPairs(), v.Matrix().HasPairs())
	}
	if !slices.Equal(v.Matrix().Items(), batch.Matrix().Items()) || !slices.Equal(got, want) {
		t.Fatalf("%s: view's pairs over %v\n%v\nBuildIndex's over %v\n%v", where, v.Matrix().Items(), got, batch.Matrix().Items(), want)
	}
}

// TestIndexPairTableMatchesBuildIndex: the pair table a refresh reads level 2
// off is the batch index's, on one counting worker and on four, whichever way
// the index came to hold it — a log cut at random into segments, nodes
// promoted late (z1 in the crossing stream) and a changed history that drops
// the index and rebuilds it.
func TestIndexPairTableMatchesBuildIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opt := miningOpts()
		opt.Gen.MaxK = 3
		opt.Count.Parallelism, opt.Gen.Count.Parallelism = workers, workers
		opt.Count.Mem = govern.NewBudget(0)
		opt.Gen.Count.Mem = opt.Count.Mem
		refresh := func(m *Miner, log *seglog.Log) RefreshStats {
			t.Helper()
			if _, err := m.Refresh(log); err != nil {
				t.Fatal(err)
			}
			return m.LastStats()
		}

		tax, baskets := driftData(t, 480, int64(workers))
		rng := rand.New(rand.NewSource(int64(workers)))
		cuts := append(rng.Perm(len(baskets) - 1)[:5+rng.Intn(10)], len(baskets)-1)
		sortInts(cuts)
		log := openLog(t)
		m := New(tax, opt)
		lo := 0
		for i, cut := range cuts {
			fillLog(t, log, baskets[lo:cut+1], 1+rng.Intn(cut+1-lo), 1)
			lo = cut + 1
			refresh(m, log)
			checkPairs(t, fmt.Sprintf("%d workers, random splits, refresh %d", workers, i+1), m, log)
		}

		tax, id, stream := crossingStream(t)
		log, m, lo = openLog(t), New(tax, opt), 0
		late := false
		for i, round := range []int{200, 100, 150, 50, 100} {
			fillLog(t, log, stream[lo:lo+round], round, 0)
			lo += round
			if st := refresh(m, log); i > 0 && st.RowsPromoted > 0 && m.idx.nodes[id["z1"]].row != nil {
				late = true
			}
			checkPairs(t, fmt.Sprintf("%d workers, crossing stream at %d", workers, lo), m, log)
		}
		if !late {
			t.Fatalf("%d workers: z1 was not promoted after the first refresh", workers)
		}

		tax, baskets = testData(t, 600, 12)
		log, err := seglog.Open(t.TempDir(), seglog.Options{CompactUnder: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		m = New(tax, opt)
		fillLog(t, log, baskets[:300], 100, 1)
		refresh(m, log)
		if did, err := log.Compact(); err != nil || !did {
			t.Fatalf("compact: did=%v err=%v", did, err)
		}
		fillLog(t, log, baskets[300:], 100, 1)
		if st := refresh(m, log); st.OldSegmentScans == 0 || st.RowsPromoted != st.LargeItems {
			t.Fatalf("%d workers: the compaction did not drop the index: %+v", workers, st)
		}
		checkPairs(t, fmt.Sprintf("%d workers, after a compaction", workers), m, log)
	}
}
