package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"negmine/internal/fault"
)

// fakeClock drives the pool deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testPool(t *testing.T, clock *fakeClock, probe func(ctx context.Context, addr string) error) *Pool {
	t.Helper()
	return NewPool(PoolConfig{
		Shards:        2,
		HeartbeatTTL:  3 * time.Second,
		ProbeInterval: 500 * time.Millisecond,
		DownAfter:     3,
		BreakerAfter:  3,
		Probe:         probe,
		Now:           clock.now,
		Logf:          t.Logf,
	})
}

func beat(node string, shard int) Heartbeat {
	return Heartbeat{Node: node, Addr: "127.0.0.1:1", Shard: shard, Shards: 2}
}

func replicaState(t *testing.T, p *Pool, node string) string {
	t.Helper()
	for _, row := range p.Status().Table {
		for _, r := range row.Replicas {
			if r.Node == node {
				return r.State
			}
		}
	}
	t.Fatalf("replica %s not registered", node)
	return ""
}

func TestHeartbeatRegistersReplica(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if got := replicaState(t, p, "n0"); got != "healthy" {
		t.Fatalf("state = %s, want healthy", got)
	}
	node, addr := p.Pick(0, nil)
	if node != "n0" || addr != "127.0.0.1:1" {
		t.Fatalf("Pick = (%q, %q), want (n0, 127.0.0.1:1)", node, addr)
	}
	if node, _ := p.Pick(1, nil); node != "" {
		t.Fatalf("Pick(1) = %q, want no replica", node)
	}
}

func TestHeartbeatRejectsMisconfiguredNode(t *testing.T) {
	p := testPool(t, newFakeClock(), nil)
	if err := p.Heartbeat(Heartbeat{Node: "x", Addr: "a:1", Shard: 7, Shards: 2}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if err := p.Heartbeat(Heartbeat{Node: "x", Addr: "a:1", Shard: 0, Shards: 5}); err == nil {
		t.Fatal("mismatched cluster width accepted")
	}
	if err := p.Heartbeat(Heartbeat{Shard: 0}); err == nil {
		t.Fatal("heartbeat without node/addr accepted")
	}
	if st := p.Status(); st.Registered != 0 {
		t.Fatalf("%d replicas registered from rejected heartbeats", st.Registered)
	}
}

func TestHeartbeatFailpoint(t *testing.T) {
	p := testPool(t, newFakeClock(), nil)
	defer fault.Enable(PointHeartbeat, fault.Error("dropped"))()
	err := p.Heartbeat(beat("n0", 0))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if st := p.Status(); st.HeartbeatErrs != 1 {
		t.Fatalf("heartbeatErrors = %d, want 1", st.HeartbeatErrs)
	}
}

func TestSweepDemotesStaleHeartbeats(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}

	clock.advance(3500 * time.Millisecond) // > TTL
	p.Sweep(clock.now())
	if got := replicaState(t, p, "n0"); got != "suspect" {
		t.Fatalf("after TTL: state = %s, want suspect", got)
	}
	// Suspect replicas remain routable (last resort).
	if node, _ := p.Pick(0, nil); node != "n0" {
		t.Fatalf("suspect replica not routable, Pick = %q", node)
	}

	clock.advance(3 * time.Second) // total > 2×TTL
	p.Sweep(clock.now())
	if got := replicaState(t, p, "n0"); got != "down" {
		t.Fatalf("after 2×TTL: state = %s, want down", got)
	}
	if node, _ := p.Pick(0, nil); node != "" {
		t.Fatalf("down replica still routable: %q", node)
	}

	// A fresh heartbeat starts recovery; a second completes it.
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}
	if got := replicaState(t, p, "n0"); got != "recovering" {
		t.Fatalf("after heartbeat: state = %s, want recovering", got)
	}
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}
	if got := replicaState(t, p, "n0"); got != "healthy" {
		t.Fatalf("after second heartbeat: state = %s, want healthy", got)
	}
}

func TestRequestFailuresDriveStateMachine(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}

	p.ReportFailure("n0")
	if got := replicaState(t, p, "n0"); got != "suspect" {
		t.Fatalf("after 1 failure: %s, want suspect", got)
	}
	p.ReportFailure("n0")
	p.ReportFailure("n0") // DownAfter = 3
	if got := replicaState(t, p, "n0"); got != "down" {
		t.Fatalf("after 3 failures: %s, want down", got)
	}

	// Success resets the ledger completely.
	p.ReportSuccess("n0") // down → recovering (breaker trial succeeded)
	p.ReportSuccess("n0") // recovering → healthy
	if got := replicaState(t, p, "n0"); got != "healthy" {
		t.Fatalf("after successes: %s, want healthy", got)
	}
}

func TestBreakerOpensAndCoolsDown(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}

	p.ReportFailure("n0")
	p.ReportFailure("n0")
	if node, _ := p.Pick(0, nil); node != "n0" {
		t.Fatalf("breaker tripped before BreakerAfter, Pick = %q", node)
	}
	p.ReportFailure("n0") // third consecutive failure: breaker opens
	if node, _ := p.Pick(0, nil); node != "" {
		t.Fatalf("open breaker still routable: %q", node)
	}

	// After the cool-down one trial request is allowed.
	clock.advance(600 * time.Millisecond) // > ProbeInterval initial cool-down
	// Down state also blocks Pick; recover liveness via heartbeats first.
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}
	if node, _ := p.Pick(0, nil); node != "n0" {
		t.Fatalf("breaker did not half-open after cool-down, Pick = %q", node)
	}

	// A failed trial doubles the cool-down.
	p.ReportFailure("n0")
	clock.advance(600 * time.Millisecond)
	if node, _ := p.Pick(0, nil); node != "" {
		t.Fatalf("breaker closed after one interval despite doubled backoff: %q", node)
	}
	st := p.Status()
	if st.Table[0].Replicas[0].BreakerOpens == 0 {
		t.Fatal("status does not report breaker opens")
	}
}

func TestProbeRecoversDownReplica(t *testing.T) {
	clock := newFakeClock()
	probeErr := errors.New("still dead")
	var allow bool
	probe := func(ctx context.Context, addr string) error {
		if allow {
			return nil
		}
		return probeErr
	}
	p := testPool(t, clock, probe)
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.ReportFailure("n0")
	}
	if got := replicaState(t, p, "n0"); got != "down" {
		t.Fatalf("state = %s, want down", got)
	}

	// Failing probes back off exponentially: the first is due immediately,
	// the next only after a doubled interval.
	p.ProbeOnce(context.Background())
	p.ProbeOnce(context.Background()) // not due yet: no probe fires
	clock.advance(1 * time.Second)

	allow = true
	p.ProbeOnce(context.Background())
	if got := replicaState(t, p, "n0"); got != "recovering" {
		t.Fatalf("after probe ok: %s, want recovering", got)
	}
	// Recovering replicas are routable immediately — within one probe
	// interval of the shard coming back.
	if node, _ := p.Pick(0, nil); node != "n0" {
		t.Fatalf("recovering replica not routable, Pick = %q", node)
	}
	clock.advance(600 * time.Millisecond)
	p.ProbeOnce(context.Background())
	if got := replicaState(t, p, "n0"); got != "healthy" {
		t.Fatalf("after second probe ok: %s, want healthy", got)
	}
}

func TestPickPrefersHealthierAndFresher(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	hb := beat("a", 0)
	hb.Generation = 5
	if err := p.Heartbeat(hb); err != nil {
		t.Fatal(err)
	}
	hb2 := beat("b", 0)
	hb2.Generation = 7
	if err := p.Heartbeat(hb2); err != nil {
		t.Fatal(err)
	}

	// Fresher snapshot wins among equal states.
	if node, _ := p.Pick(0, nil); node != "b" {
		t.Fatalf("Pick = %q, want b (higher generation)", node)
	}
	// Healthy beats suspect even when staler.
	p.ReportFailure("b")
	if node, _ := p.Pick(0, nil); node != "a" {
		t.Fatalf("Pick = %q, want a (healthy beats suspect)", node)
	}
	// tried excludes earlier attempts, falling through to the sibling.
	if node, _ := p.Pick(0, []string{"a"}); node != "b" {
		t.Fatalf("Pick(tried a) = %q, want b", node)
	}
	if node, _ := p.Pick(0, []string{"a", "b"}); node != "" {
		t.Fatalf("Pick(tried all) = %q, want none", node)
	}
}

func TestPickRoundRobinsEquals(t *testing.T) {
	p := testPool(t, newFakeClock(), nil)
	if err := p.Heartbeat(beat("a", 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Heartbeat(beat("b", 0)); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		node, _ := p.Pick(0, nil)
		seen[node]++
	}
	if seen["a"] != 5 || seen["b"] != 5 {
		t.Fatalf("round-robin split = %v, want 5/5", seen)
	}
}

func TestStatusShape(t *testing.T) {
	p := testPool(t, newFakeClock(), nil)
	hb := beat("n1", 1)
	hb.Rules = 42
	hb.SourceKind = "mmap"
	if err := p.Heartbeat(hb); err != nil {
		t.Fatal(err)
	}
	st := p.Status()
	if st.Shards != 2 || st.Registered != 1 || st.Routable != 1 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Table) != 2 {
		t.Fatalf("table rows = %d, want 2", len(st.Table))
	}
	if st.Table[0].Routable {
		t.Fatal("empty shard 0 reported routable")
	}
	r := st.Table[1].Replicas[0]
	if r.Node != "n1" || r.Rules != 42 || r.SourceKind != "mmap" {
		t.Fatalf("replica row = %+v", r)
	}
}

func TestShardHashing(t *testing.T) {
	if got := ShardOfItem("anything", 1); got != 0 {
		t.Fatalf("single shard: %d", got)
	}
	const shards = 4
	for _, name := range []string{"bread", "milk", "Home Appliances", ""} {
		s := ShardOfItem(name, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOfItem(%q) = %d out of range", name, s)
		}
		if again := ShardOfItem(name, shards); again != s {
			t.Fatalf("ShardOfItem(%q) unstable: %d vs %d", name, s, again)
		}
	}
	// The rule shard is the shard of the lexicographically-first antecedent
	// item, regardless of caller ordering.
	a := ShardOfAntecedent([]string{"milk", "bread"}, shards)
	b := ShardOfAntecedent([]string{"bread", "milk"}, shards)
	if a != b || a != ShardOfItem("bread", shards) {
		t.Fatalf("antecedent shard: %d vs %d vs %d", a, b, ShardOfItem("bread", shards))
	}
	// Basket shards cover every antecedent shard of its subsets.
	basket := []string{"bread", "milk", "beer"}
	cover := map[int]bool{}
	for _, s := range ShardsForBasket(basket, shards) {
		cover[s] = true
	}
	for _, item := range basket {
		if !cover[ShardOfItem(item, shards)] {
			t.Fatalf("basket shards miss item %q", item)
		}
	}
}
