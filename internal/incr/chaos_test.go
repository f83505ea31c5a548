package incr

import (
	"bytes"
	"errors"
	"testing"

	"negmine/internal/fault"
	"negmine/internal/seglog"
)

// TestChaosMergeFaultThenRetry arms the merge failpoint: the refresh fails
// after the index has been extended, and a retry (the daemon's next trigger)
// completes with a result identical to an undisturbed batch mine — the index
// built before the failure is reused, never corrupted.
func TestChaosMergeFaultThenRetry(t *testing.T) {
	tax, baskets := testData(t, 300, 9)
	log, err := seglog.Open(t.TempDir(), seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	fillLog(t, log, baskets, 100, 1)

	m := New(tax, miningOpts())
	off := fault.Enable(PointMerge, fault.Error("killed"))
	_, err = m.Refresh(log)
	off()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("refresh error = %v, want injected fault", err)
	}

	got, err := m.Refresh(log)
	if err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if st.NewSegments != 0 {
		t.Fatalf("retry re-read %d segments the failed refresh already indexed", st.NewSegments)
	}
	want := batchMine(t, log, tax)
	if !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
		t.Fatal("post-fault refresh differs from batch")
	}
}
