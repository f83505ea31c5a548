package seglog

import (
	"errors"
	"fmt"
	"testing"

	"negmine/internal/artifact"
	"negmine/internal/fault"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// --- Epoch fencing -------------------------------------------------------

func TestEpochFencing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Epoch(); got != 0 {
		t.Fatalf("fresh log epoch = %d", got)
	}
	// Epoch -1 opts out of fencing (solo writers); epoch 0 matches a fresh log.
	if _, _, err := l.Append([]item.Itemset{basket(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(2)}, Epoch: 0}); err != nil {
		t.Fatal(err)
	}

	if err := l.AdvanceEpoch(2); err != nil {
		t.Fatal(err)
	}
	// The old token is now fenced — and the rejection is counted.
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(3)}, Epoch: 0}); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch append: %v, want ErrFenced", err)
	}
	if st := l.Stats(); st.FencedAppends != 1 || st.Epoch != 2 {
		t.Fatalf("stats after fence = %+v", st)
	}
	// The new token writes; epoch -1 still bypasses.
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(4)}, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(5)}, Epoch: -1}); err != nil {
		t.Fatal(err)
	}
	// Epochs are forward-only and idempotent at the current value.
	if err := l.AdvanceEpoch(2); err != nil {
		t.Fatalf("same-epoch advance: %v", err)
	}
	if err := l.AdvanceEpoch(1); err == nil {
		t.Fatal("lowering the epoch must fail")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The epoch is durable: a reopened log still fences the old token.
	l2 := reopen(t, dir)
	if got := l2.Epoch(); got != 2 {
		t.Fatalf("epoch after reopen = %d, want 2", got)
	}
	if _, err := l2.AppendBatch(Batch{Baskets: []item.Itemset{basket(6)}, Epoch: 0}); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch append after reopen: %v, want ErrFenced", err)
	}
}

func TestFencePointBlocksAppend(t *testing.T) {
	l, _ := openTest(t, Options{})
	defer fault.Reset()
	fault.Enable(PointFence, fault.Error("injected fence check failure"))
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(1)}, Epoch: 0}); err == nil {
		t.Fatal("armed seglog.fence failpoint did not block the append")
	}
	fault.Reset()
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(1)}, Epoch: 0}); err != nil {
		t.Fatalf("append after disarm: %v", err)
	}
}

// --- Exactly-once dedup window ------------------------------------------

func TestDedupKeyedReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{DedupWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{Baskets: []item.Itemset{basket(1), basket(2)}, Epoch: -1, Key: "w1", Seq: 1}
	first, err := l.AppendBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if first.Duplicate || first.First != 1 || first.Last != 2 {
		t.Fatalf("first append = %+v", first)
	}
	// Retrying the same (key, seq) replays the original TID range without
	// appending, even with different payload bytes (the ack is the identity).
	second, err := l.AppendBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Duplicate || second.First != 1 || second.Last != 2 {
		t.Fatalf("replayed append = %+v", second)
	}
	if got := l.Count(); got != 2 {
		t.Fatalf("Count = %d after replay, want 2", got)
	}
	st := l.Stats()
	if st.DedupHits != 1 || st.DedupEntries != 1 {
		t.Fatalf("dedup stats = hits %d entries %d", st.DedupHits, st.DedupEntries)
	}
	// A seq at or below the highest applied for the key is stale, not new.
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(9)}, Epoch: -1, Key: "w1", Seq: 0}); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("seq 0 after seq 1: %v, want ErrStaleSeq", err)
	}
	// Independent keys do not interfere.
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(3)}, Epoch: -1, Key: "w2", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The window is journaled: replay protection survives a restart.
	l2, err := Open(dir, Options{DedupWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	res, err := l2.AppendBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate || res.First != 1 || res.Last != 2 {
		t.Fatalf("replay after reopen = %+v", res)
	}
	if got := l2.Count(); got != 3 {
		t.Fatalf("Count = %d after reopen replay, want 3", got)
	}
}

func TestDedupWindowEviction(t *testing.T) {
	l, _ := openTest(t, Options{DedupWindow: 2})
	for seq := uint64(1); seq <= 3; seq++ {
		key := fmt.Sprintf("w%d", seq)
		if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(int(seq))}, Epoch: -1, Key: key, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.DedupEntries != 2 {
		t.Fatalf("window holds %d entries, want 2 (FIFO bound)", st.DedupEntries)
	}
	// w1 was evicted with its key's only entry, and its high-water seq went
	// with it: the retry is beyond the window, so it is appended again.
	res, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(1)}, Epoch: -1, Key: "w1", Seq: 1})
	if err != nil || res.Duplicate || res.First != 4 {
		t.Fatalf("evicted-key replay = %+v, %v; want appended at TID 4", res, err)
	}
	// A fresh seq on the key is fine.
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(4)}, Epoch: -1, Key: "w1", Seq: 2}); err != nil {
		t.Fatal(err)
	}
	// One key per batch, as negrouter mints for unkeyed ingest, keeps the
	// per-key state within the window's bound.
	for i := 0; i < 100; i++ {
		if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(i)}, Epoch: -1, Key: fmt.Sprintf("r%d", i), Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.window.maxSeq); n > 2 {
		t.Fatalf("%d keys hold a high-water seq, want at most the window's 2", n)
	}
}

// TestDedupWindowSameAnswerAcrossRestarts asks the same questions of the
// window before a restart and after each of two: a key's high-water seq
// lives as long as the key has an entry in the window, which is what the
// compacted journal rebuilds, so every restart gives the same answers.
func TestDedupWindowSameAnswerAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	opt := Options{DedupWindow: 2}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	keyed := func(key string, seq uint64) Batch {
		return Batch{Baskets: []item.Itemset{basket(int(seq))}, Epoch: -1, Key: key, Seq: seq}
	}
	// Keys a, b and c once each, then k three times: the window keeps k/2
	// and k/3, so a, b, c and k/1 are all evicted.
	for _, b := range []Batch{keyed("a", 1), keyed("b", 1), keyed("c", 1), keyed("k", 1), keyed("k", 2), keyed("k", 3)} {
		if _, err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// A reservation whose append fails is cancelled, and the next batch
	// takes the TID it reserved: replay must neither keep it nor let it
	// evict k/2.
	off := fault.Enable(PointAppend, fault.Error("refused"), fault.OnHit(2))
	if _, err := l.AppendBatch(keyed("k", 4)); err == nil {
		t.Fatal("append of k/4 swallowed the injected error")
	}
	off()
	if _, _, err := l.Append([]item.Itemset{basket(7)}); err != nil {
		t.Fatal(err)
	}
	for restart := 0; restart <= 2; restart++ {
		if restart > 0 {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l, err = Open(dir, opt); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			key  string
			seq  uint64
			want dedupState
		}{
			{"a", 1, dedupFresh},     // a has no entry left: beyond the window
			{"k", 1, dedupStale},     // k still has entries, up to seq 3
			{"k", 2, dedupDuplicate}, // retained
			{"k", 3, dedupDuplicate},
			{"k", 4, dedupFresh}, // cancelled
		} {
			if _, got := l.window.lookup(c.key, c.seq); got != c.want {
				t.Fatalf("after %d restarts: %s/%d is %d, want %d", restart, c.key, c.seq, got, c.want)
			}
		}
		if n := len(l.window.maxSeq); n != 1 {
			t.Fatalf("after %d restarts: %d keys hold a high-water seq, want 1 (k)", restart, n)
		}
	}
	res, err := l.AppendBatch(keyed("a", 1))
	if err != nil || res.Duplicate || res.First != 8 {
		t.Fatalf("retry of a/1 = %+v, %v; want appended at TID 8", res, err)
	}
	if _, err := l.AppendBatch(keyed("k", 1)); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("retry of k/1: %v, want ErrStaleSeq", err)
	}
	l.Close()
}

func TestDedupDisabledWindowIgnoresKeys(t *testing.T) {
	l, _ := openTest(t, Options{}) // DedupWindow 0: keys accepted, not tracked
	b := Batch{Baskets: []item.Itemset{basket(1)}, Epoch: -1, Key: "w", Seq: 1}
	if _, err := l.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	res, err := l.AppendBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicate {
		t.Fatal("disabled window reported a duplicate")
	}
	if got := l.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2 (both applied)", got)
	}
}

// --- Replicated appends and segment adoption ----------------------------

func mkTxs(startTID int64, n int) []txdb.Transaction {
	txs := make([]txdb.Transaction, n)
	for i := range txs {
		txs[i] = txdb.Transaction{TID: startTID + int64(i), Items: basket(i + 1)}
	}
	return txs
}

func TestAppendReplicatedContinuity(t *testing.T) {
	l, _ := openTest(t, Options{})
	res, err := l.AppendReplicated(mkTxs(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.First != 1 || res.Last != 3 {
		t.Fatalf("replicated append = %+v", res)
	}
	// A gap (or a replay) is out of sync, and nothing is applied.
	if _, err := l.AppendReplicated(mkTxs(5, 2)); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("gapped replicated append: %v, want ErrOutOfSync", err)
	}
	if _, err := l.AppendReplicated(mkTxs(2, 2)); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("replayed replicated append: %v, want ErrOutOfSync", err)
	}
	if got := l.Count(); got != 3 {
		t.Fatalf("Count = %d after rejected appends, want 3", got)
	}
	// Interior discontinuity inside one batch is rejected before any append.
	bad := mkTxs(4, 2)
	bad[1].TID = 9
	if _, err := l.AppendReplicated(bad); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("interior-gap batch: %v, want ErrOutOfSync", err)
	}
	wantTIDs(t, l, 1, 2, 3)
}

// TestShipperFollowerRoundTrip replicates a primary's log into a standby
// through a shared FS artifact store and asserts the transported segments
// are byte-identical facts: same TIDs, same items, same seal boundaries.
func TestShipperFollowerRoundTrip(t *testing.T) {
	store, err := artifact.OpenFS(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	primary, _ := openTest(t, Options{})
	standby, _ := openTest(t, Options{})

	for seg := 0; seg < 3; seg++ {
		if _, _, err := primary.Append([]item.Itemset{basket(seg + 1), basket(seg+1, 9)}); err != nil {
			t.Fatal(err)
		}
		if err := primary.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	sh := &Shipper{Log: primary, Store: store, Node: "p", Epoch: 0}
	if n, err := sh.Sync(); err != nil || n != 3 {
		t.Fatalf("Shipper.Sync = %d, %v; want 3 segments", n, err)
	}
	// Re-syncing ships nothing new.
	if n, err := sh.Sync(); err != nil || n != 0 {
		t.Fatalf("idempotent re-sync = %d, %v", n, err)
	}

	fo := &Follower{Log: standby, Store: store}
	if n, _, err := fo.Sync(); err != nil || n != 3 {
		t.Fatalf("Follower.Sync = %d, %v; want 3 adopted", n, err)
	}
	var want, got []string
	fmtTx := func(tx txdb.Transaction) string { return fmt.Sprintf("%d:%v", tx.TID, tx.Items) }
	if err := primary.Scan(func(tx txdb.Transaction) error { want = append(want, fmtTx(tx)); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := standby.Scan(func(tx txdb.Transaction) error { got = append(got, fmtTx(tx)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("standby holds %d txns, primary %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("txn %d differs: primary %s standby %s", i, want[i], got[i])
		}
	}
	if lp, ls := len(primary.SealedEntries()), len(standby.SealedEntries()); lp != ls {
		t.Fatalf("seal boundaries differ: primary %d standby %d", lp, ls)
	}

	// A restarted shipper (fresh high-water state) re-scans the store and
	// does not double-ship.
	sh2 := &Shipper{Log: primary, Store: store, Node: "p", Epoch: 0}
	if n, err := sh2.Sync(); err != nil || n != 0 {
		t.Fatalf("restarted shipper re-shipped: %d, %v", n, err)
	}
}

// TestShipperSelfFences is the deposed-primary path: a promotion epoch in
// the store fences the shipper, durably advances its log's epoch, and its
// held token stops writing.
func TestShipperSelfFences(t *testing.T) {
	store, err := artifact.OpenFS(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := openTest(t, Options{})
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(1)}, Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	if err := PublishEpoch(store, 3, "standby-b"); err != nil {
		t.Fatal(err)
	}
	sh := &Shipper{Log: l, Store: store, Node: "p", Epoch: 0}
	if _, err := sh.Sync(); !errors.Is(err, ErrFenced) {
		t.Fatalf("Sync against a promoted store: %v, want ErrFenced", err)
	}
	if got := l.Epoch(); got != 3 {
		t.Fatalf("log epoch after self-fence = %d, want 3", got)
	}
	// The in-flight token is now rejected — and counted.
	if _, err := l.AppendBatch(Batch{Baskets: []item.Itemset{basket(2)}, Epoch: 0}); !errors.Is(err, ErrFenced) {
		t.Fatalf("append with deposed token: %v, want ErrFenced", err)
	}
	if st := l.Stats(); st.FencedAppends != 1 {
		t.Fatalf("FencedAppends = %d, want 1", st.FencedAppends)
	}
	if e, err := StoreEpoch(store); err != nil || e != 3 {
		t.Fatalf("StoreEpoch = %d, %v", e, err)
	}
}

// TestFollowerStopsAtGap: a follower must not adopt a sealed segment that
// would leave a TID hole (the open tail between cursor and segment has not
// arrived), and must resume once the gap is filled.
func TestFollowerStopsAtGap(t *testing.T) {
	store, err := artifact.OpenFS(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	primary, _ := openTest(t, Options{})
	standby, _ := openTest(t, Options{})

	// Two sealed segments; ship only the second by syncing after dropping
	// the first from the shipper's view (simulate: seal 1, don't ship, seal 2,
	// ship both, then make the standby's cursor lag).
	if _, _, err := primary.Append([]item.Itemset{basket(1), basket(2)}); err != nil {
		t.Fatal(err)
	}
	if err := primary.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := primary.Append([]item.Itemset{basket(3)}); err != nil {
		t.Fatal(err)
	}
	if err := primary.Seal(); err != nil {
		t.Fatal(err)
	}
	// Ship only the later segment first: pre-mark the first as covered.
	sh := &Shipper{Log: primary, Store: store, Node: "p", Epoch: 0, shippedMax: 2}
	if n, err := sh.Sync(); err != nil || n != 1 {
		t.Fatalf("partial ship = %d, %v; want 1", n, err)
	}

	fo := &Follower{Log: standby, Store: store}
	if n, _, err := fo.Sync(); err != nil || n != 0 {
		t.Fatalf("gap adoption = %d, %v; want 0 (segment starts at TID 3, log at 1)", n, err)
	}
	if got := standby.NextTID(); got != 1 {
		t.Fatalf("standby NextTID = %d after refusing the gap", got)
	}

	// The tail stream delivers the missing range; the same store generation
	// is then consumable.
	if _, err := standby.AppendReplicated(mkTxs(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := standby.Seal(); err != nil {
		t.Fatal(err)
	}
	if n, _, err := fo.Sync(); err != nil || n != 1 {
		t.Fatalf("post-fill adoption = %d, %v; want 1", n, err)
	}
	wantTIDs(t, standby, 1, 2, 3)
}

// TestReplicatePointBlocksShipping: the seglog.replicate failpoint vetoes
// segment publication without corrupting shipper state — the next healthy
// round ships everything.
func TestReplicatePointBlocksShipping(t *testing.T) {
	store, err := artifact.OpenFS(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := openTest(t, Options{})
	if _, _, err := l.Append([]item.Itemset{basket(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	fault.Enable(PointReplicate, fault.Error("injected replication failure"))
	sh := &Shipper{Log: l, Store: store, Node: "p", Epoch: 0}
	if n, err := sh.Sync(); err == nil || n != 0 {
		t.Fatalf("armed seglog.replicate: shipped %d, err %v", n, err)
	}
	fault.Reset()
	if n, err := sh.Sync(); err != nil || n != 1 {
		t.Fatalf("post-disarm sync = %d, %v; want 1", n, err)
	}
}

// TestDedupEntriesReplication: the dedup window itself replicates, so a
// promoted standby keeps refusing duplicates of batches the old primary
// acknowledged.
func TestDedupEntriesReplication(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	primary, err := Open(dirA, Options{DedupWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	standby, err := Open(dirB, Options{DedupWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()

	b := Batch{Baskets: []item.Itemset{basket(1), basket(2)}, Epoch: -1, Key: "w1", Seq: 4}
	if _, err := primary.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	// Tail replication: data first, then the dedup entries covering it.
	var txs []txdb.Transaction
	if err := primary.ScanFrom(0, func(tx txdb.Transaction) error {
		txs = append(txs, txdb.Transaction{TID: tx.TID, Items: tx.Items.Clone()})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := standby.AppendReplicated(txs); err != nil {
		t.Fatal(err)
	}
	entries := primary.DedupEntriesAfter(0)
	if len(entries) != 1 {
		t.Fatalf("primary exports %d dedup entries, want 1", len(entries))
	}
	if err := standby.AdoptDedup(entries); err != nil {
		t.Fatal(err)
	}
	// The standby (now promoted, say) replays the retry instead of re-applying.
	res, err := standby.AppendBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate || res.First != 1 || res.Last != 2 {
		t.Fatalf("standby replay = %+v", res)
	}
	if got := standby.Count(); got != 2 {
		t.Fatalf("standby Count = %d, want 2", got)
	}
	// Entries whose data has not arrived yet are NOT adopted (they would
	// acknowledge transactions the standby does not hold).
	b2 := Batch{Baskets: []item.Itemset{basket(3)}, Epoch: -1, Key: "w2", Seq: 1}
	if _, err := primary.AppendBatch(b2); err != nil {
		t.Fatal(err)
	}
	ahead := primary.DedupEntriesAfter(2)
	if err := standby.AdoptDedup(ahead); err != nil {
		t.Fatal(err)
	}
	if res, err := standby.AppendBatch(b2); err != nil || res.Duplicate {
		t.Fatalf("ahead-of-data entry was adopted: res=%+v err=%v", res, err)
	}
}
