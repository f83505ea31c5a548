package cluster

import (
	"testing"
	"time"
)

func TestLeaseRenewalAndExpiry(t *testing.T) {
	clock := newFakeClock()
	l := NewLease(3*time.Second, clock.now)
	if l.Expired() {
		t.Fatal("fresh lease already expired")
	}
	clock.advance(2 * time.Second)
	if l.Expired() {
		t.Fatal("lease expired before TTL elapsed")
	}
	if got := l.SinceRenewal(); got != 2*time.Second {
		t.Fatalf("SinceRenewal = %v, want 2s", got)
	}
	// A renewal resets the deadline.
	l.Renew()
	clock.advance(3 * time.Second)
	if l.Expired() {
		t.Fatal("lease expired exactly at TTL (boundary is exclusive)")
	}
	clock.advance(time.Millisecond)
	if !l.Expired() {
		t.Fatal("lease still live past TTL with no renewal")
	}
	// Expiry is not terminal: contact resumes, the lease recovers.
	l.Renew()
	if l.Expired() {
		t.Fatal("renewed lease still expired")
	}
}

func ingestBeat(node, role string, lag int) Heartbeat {
	hb := beat(node, 0)
	hb.Addr = "127.0.0.1:" + node
	hb.IngestRole = role
	hb.ReplLagSegments = lag
	return hb
}

func TestPickIngestPrimary(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	// No primary yet: the write-unavailable path.
	if _, _, ok := p.PickIngestPrimary(nil); ok {
		t.Fatal("picked a primary from an empty pool")
	}
	if err := p.Heartbeat(ingestBeat("a", "standby", 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Heartbeat(ingestBeat("r", "replica", 0)); err != nil {
		t.Fatal(err)
	}
	// Standbys and read replicas are never write targets.
	if _, _, ok := p.PickIngestPrimary(nil); ok {
		t.Fatal("picked a non-primary for ingest")
	}
	if err := p.Heartbeat(ingestBeat("b", "primary", 0)); err != nil {
		t.Fatal(err)
	}
	node, addr, ok := p.PickIngestPrimary(nil)
	if !ok || node != "b" || addr != "127.0.0.1:b" {
		t.Fatalf("PickIngestPrimary = %q %q %v", node, addr, ok)
	}
	// The tried set excludes a primary the caller already failed against.
	if _, _, ok := p.PickIngestPrimary([]string{"b"}); ok {
		t.Fatal("re-picked the tried primary")
	}

	// During failover both nodes may briefly advertise "primary"; the
	// freshest heartbeat carries the newest role assignment and must win.
	clock.advance(time.Second)
	if err := p.Heartbeat(ingestBeat("a", "primary", 0)); err != nil {
		t.Fatal(err)
	}
	if node, _, _ := p.PickIngestPrimary(nil); node != "a" {
		t.Fatalf("dual-primary pick = %q, want freshest (a)", node)
	}

	// A down primary is skipped even when advertised.
	for i := 0; i < 3; i++ {
		p.ReportFailure("a")
	}
	if node, _, ok := p.PickIngestPrimary(nil); ok && node == "a" {
		t.Fatal("picked a down primary")
	}
}

func TestPickIngestPrimarySkipsDown(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	if err := p.Heartbeat(ingestBeat("p1", "primary", 0)); err != nil {
		t.Fatal(err)
	}
	// Heartbeats stop; the sweep takes the node down at 2×TTL.
	clock.advance(7 * time.Second)
	p.Sweep(clock.now())
	if _, _, ok := p.PickIngestPrimary(nil); ok {
		t.Fatal("picked a down primary")
	}
}

func TestIngestTopology(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	if primary, standbys := p.IngestTopology(); primary != "" || standbys != 0 {
		t.Fatalf("empty topology = %q/%d", primary, standbys)
	}
	if err := p.Heartbeat(ingestBeat("p1", "primary", 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Heartbeat(ingestBeat("s1", "standby", 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Heartbeat(ingestBeat("r1", "replica", 0)); err != nil {
		t.Fatal(err)
	}
	primary, standbys := p.IngestTopology()
	if primary != "p1" || standbys != 1 {
		t.Fatalf("topology = %q/%d, want p1/1", primary, standbys)
	}
	// The deposed primary re-registers as fenced; its old role is gone.
	if err := p.Heartbeat(ingestBeat("p1", "fenced", 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Heartbeat(ingestBeat("s1", "primary", 0)); err != nil {
		t.Fatal(err)
	}
	primary, standbys = p.IngestTopology()
	if primary != "s1" || standbys != 0 {
		t.Fatalf("post-failover topology = %q/%d, want s1/0", primary, standbys)
	}
}

func TestHeartbeatCarriesIngestRole(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	if err := p.Heartbeat(ingestBeat("s1", "standby", 5)); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, row := range p.Status().Table {
		for _, r := range row.Replicas {
			if r.Node != "s1" {
				continue
			}
			found = true
			if r.IngestRole != "standby" || r.ReplLagSegments != 5 {
				t.Fatalf("status role/lag = %q/%d, want standby/5", r.IngestRole, r.ReplLagSegments)
			}
		}
	}
	if !found {
		t.Fatal("s1 missing from status table")
	}
	// The next heartbeat overwrites both fields — lag is a gauge.
	if err := p.Heartbeat(ingestBeat("s1", "primary", 0)); err != nil {
		t.Fatal(err)
	}
	for _, row := range p.Status().Table {
		for _, r := range row.Replicas {
			if r.Node == "s1" && (r.IngestRole != "primary" || r.ReplLagSegments != 0) {
				t.Fatalf("updated role/lag = %q/%d, want primary/0", r.IngestRole, r.ReplLagSegments)
			}
		}
	}
}
