package seglog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"negmine/internal/fault"
	"negmine/internal/item"
	"negmine/internal/txdb"
)

// mustPanic runs fn and asserts it panics with the fault package's message.
func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected an injected panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "killed") {
			panic(r) // a real bug, not the injection — re-raise
		}
	}()
	fn()
}

// reopen abandons a (possibly wedged) log and opens the directory fresh,
// which is what a restarted process does after a kill.
func reopen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// tids collects every TID in the log, asserting a clean scan.
func tids(t *testing.T, l *Log) []int64 {
	t.Helper()
	var got []int64
	if err := l.Scan(func(tx txdb.Transaction) error {
		got = append(got, tx.TID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func wantTIDs(t *testing.T, l *Log, want ...int64) {
	t.Helper()
	got := tids(t, l)
	if len(got) != len(want) {
		t.Fatalf("log holds TIDs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log holds TIDs %v, want %v", got, want)
		}
	}
}

// TestChaosKilledMidAppend kills the process between the two halves of the
// frame write, leaving a genuinely torn frame on disk. The batch was never
// acknowledged, so losing it is correct; every previously acknowledged
// transaction must survive, and the log must accept appends again.
func TestChaosKilledMidAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(1, 2)}); err != nil {
		t.Fatal(err)
	}

	// Second evaluation of the point = the mid-write window.
	off := fault.Enable(PointAppend, fault.Panic("killed"), fault.OnHit(2))
	mustPanic(t, func() { l.Append([]item.Itemset{basket(3), basket(4, 5)}) })
	off()

	l2 := reopen(t, dir)
	if st := l2.Stats(); st.RecoveredDrop == 0 {
		t.Fatal("no torn bytes dropped — the kill window did not tear the frame")
	}
	wantTIDs(t, l2, 1)
	if first, last, err := l2.Append([]item.Itemset{basket(3), basket(4, 5)}); err != nil || first != 2 || last != 3 {
		t.Fatalf("retry after recovery: [%d, %d] err=%v", first, last, err)
	}
	wantTIDs(t, l2, 1, 2, 3)
}

// TestChaosAppendErrorIsAtomic injects a plain error (not a kill) at the
// mid-write point: Append must claw back the partial frame in-process so
// the very next append lands on a clean tail.
func TestChaosAppendErrorIsAtomic(t *testing.T) {
	l, _ := openTest(t, Options{})
	if _, _, err := l.Append([]item.Itemset{basket(1)}); err != nil {
		t.Fatal(err)
	}
	off := fault.Enable(PointAppend, fault.Error("disk gone"), fault.OnHit(2))
	if _, _, err := l.Append([]item.Itemset{basket(2)}); err == nil {
		t.Fatal("append swallowed the injected error")
	}
	off()
	if first, _, err := l.Append([]item.Itemset{basket(2)}); err != nil || first != 2 {
		t.Fatalf("append after in-process failure: first=%d err=%v", first, err)
	}
	wantTIDs(t, l, 1, 2)
}

// TestChaosKilledBeforeSealCommit kills the process after the segment file
// is fsynced but before the manifest swap. The segment stays active on
// recovery; nothing is lost and a later seal succeeds.
func TestChaosKilledBeforeSealCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]item.Itemset{basket(1), basket(2)}); err != nil {
		t.Fatal(err)
	}
	off := fault.Enable(PointSeal, fault.Panic("killed"), fault.OnHit(2))
	mustPanic(t, func() { l.Seal() })
	off()

	l2 := reopen(t, dir)
	wantTIDs(t, l2, 1, 2)
	if st := l2.Stats(); st.Segments != 0 || st.ActiveTxns != 2 {
		t.Fatalf("segment sealed despite the kill: %+v", st)
	}
	if err := l2.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := l2.Stats(); st.Segments != 1 || st.SealedTxns != 2 {
		t.Fatalf("re-issued seal: %+v", st)
	}
}

// TestChaosKilledMidCompaction kills the process after the merged segment
// file is written but before the manifest swap. Recovery must keep the
// original segments, reap the orphan merged file, and let a re-issued
// compaction succeed.
func TestChaosKilledMidCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, _, err := l.Append([]item.Itemset{basket(i)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	off := fault.Enable(PointCompact, fault.Panic("killed"), fault.OnHit(2))
	mustPanic(t, func() { l.Compact() })
	off()

	// The merged file exists as an orphan until reopen removes it.
	orphans, err := filepath.Glob(filepath.Join(dir, "seg-*.nmsl"))
	if err != nil {
		t.Fatal(err)
	}
	l2 := reopen(t, dir)
	after, err := filepath.Glob(filepath.Join(dir, "seg-*.nmsl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(orphans) {
		t.Fatalf("orphan merged segment not reaped: %d files before reopen, %d after", len(orphans), len(after))
	}
	wantTIDs(t, l2, 1, 2, 3)
	if st := l2.Stats(); st.Segments != 3 {
		t.Fatalf("manifest changed despite the kill: %+v", st)
	}
	if did, err := l2.Compact(); err != nil || !did {
		t.Fatalf("re-issued compaction: did=%v err=%v", did, err)
	}
	wantTIDs(t, l2, 1, 2, 3)
	if st := l2.Stats(); st.Segments != 1 {
		t.Fatalf("stats after re-issued compaction: %+v", st)
	}
}

// TestChaosKilledAfterSealCommit kills between the manifest swap and...
// nothing: the swap IS the commit point, so enabling the point on its
// first evaluation (entry) simply refuses the seal with everything intact.
func TestChaosSealEntryErrorLeavesLogUsable(t *testing.T) {
	l, _ := openTest(t, Options{})
	if _, _, err := l.Append([]item.Itemset{basket(1)}); err != nil {
		t.Fatal(err)
	}
	off := fault.Enable(PointSeal, fault.Error("refused"), fault.OnHit(1))
	if err := l.Seal(); err == nil {
		t.Fatal("seal swallowed the injected error")
	}
	off()
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	wantTIDs(t, l, 1)
}

// TestChaosTornWriteAcrossReopenCycle runs several kill/recover/append
// cycles and checks that exactly the acknowledged transactions survive
// every time.
func TestChaosTornWriteAcrossReopenCycle(t *testing.T) {
	dir := t.TempDir()
	var acked []int64
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	next, appends := 1, 0
	for cycle := 0; cycle < 4; cycle++ {
		// A few acknowledged appends, sealing every third...
		for i := 0; i < 2; i++ {
			first, last, err := l.Append([]item.Itemset{basket(next), basket(next, next+1)})
			if err != nil {
				t.Fatal(err)
			}
			for tid := first; tid <= last; tid++ {
				acked = append(acked, tid)
			}
			next += 2
			if appends++; appends%3 == 0 {
				if err := l.Seal(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// ...then a kill mid-append.
		off := fault.Enable(PointAppend, fault.Panic("killed"), fault.OnHit(2))
		mustPanic(t, func() { l.Append([]item.Itemset{basket(next)}) })
		off()
		l = reopen(t, dir)
		wantTIDs(t, l, acked...)
	}
	if st := l.Stats(); st.Segments == 0 {
		t.Fatalf("no seal across cycles: %+v", st)
	}
}

// TestChaosFaultSpecEnv exercises the NEGMINE_FAULTS wire-up for the new
// points, mirroring how the chaos CI job arms them.
func TestChaosFaultSpecEnv(t *testing.T) {
	if err := fault.ParseSpec(PointAppend + "=error(injected)"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable(PointAppend)
	l, _ := openTest(t, Options{})
	if _, _, err := l.Append([]item.Itemset{basket(1)}); err == nil {
		t.Fatal("spec-armed failpoint did not fire")
	}
	if _, err := os.Stat(l.Dir()); err != nil {
		t.Fatal(err)
	}
}
