package cluster

import (
	"context"
	"errors"
	"sync"
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

	// An expired heartbeat sets no back-off: the next heartbeat brings the
	// replica back, healthy, since it carries no failures.
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}
	if got := replicaState(t, p, "n0"); got != "healthy" {
		t.Fatalf("after heartbeat: state = %s, want healthy", got)
	}
}

// TestSweepForgetsSilentReplica: a replica with neither a heartbeat nor a
// probe success for 10 × HeartbeatTTL (a shard restarted on a new port) is
// forgotten and no longer probed; one whose heartbeat stops but whose
// /healthz still answers is kept; a forgotten node that heartbeats again
// registers afresh.
func TestSweepForgetsSilentReplica(t *testing.T) {
	clock := newFakeClock()
	var mu sync.Mutex
	probes := map[string]int{}
	p := testPool(t, clock, func(ctx context.Context, addr string) error {
		mu.Lock()
		defer mu.Unlock()
		probes[addr]++
		if addr == "127.0.0.1:1" {
			return errors.New("connection refused")
		}
		return nil
	})
	gone := beat("gone", 0)
	quiet := Heartbeat{Node: "quiet", Addr: "127.0.0.1:2", Shard: 1, Shards: 2}
	for _, hb := range []Heartbeat{gone, quiet} {
		if err := p.Heartbeat(hb); err != nil {
			t.Fatal(err)
		}
	}
	registered := func(node string) bool {
		for _, row := range p.Status().Table {
			for _, r := range row.Replicas {
				if r.Node == node {
					return true
				}
			}
		}
		return false
	}
	rounds := func(n int) {
		for i := 0; i < n; i++ {
			clock.advance(500 * time.Millisecond)
			p.ProbeOnce(context.Background())
		}
	}

	rounds(60) // exactly 10 × TTL of silence: not yet past it
	if !registered("gone") || replicaState(t, p, "gone") != "down" {
		t.Fatal("silent replica forgotten before 10 × TTL, or not down")
	}
	rounds(1)
	if registered("gone") {
		t.Fatal("replica silent past 10 × TTL still registered")
	}
	if !registered("quiet") {
		t.Fatal("replica whose /healthz answers was forgotten when its heartbeat stopped")
	}
	if st := p.Status(); st.Registered != 1 {
		t.Fatalf("registered = %d, want 1", st.Registered)
	}
	mu.Lock()
	dialed := probes["127.0.0.1:1"]
	mu.Unlock()
	rounds(10)
	mu.Lock()
	redialed := probes["127.0.0.1:1"]
	mu.Unlock()
	if redialed != dialed {
		t.Fatalf("forgotten replica probed %d more times", redialed-dialed)
	}

	if err := p.Heartbeat(gone); err != nil {
		t.Fatal(err)
	}
	if got := replicaState(t, p, "gone"); got != "healthy" {
		t.Fatalf("re-registered replica is %s, want healthy", got)
	}
	if node, _ := p.Pick(0, nil); node != "gone" {
		t.Fatalf("re-registered replica not routable, Pick = %q", node)
	}
}

// TestHeartbeatResumesKilledReplica: a replica that failed its
// requests and then let its heartbeat expire (killed) is routable again on
// the first heartbeat after its back-off, and not before; it still carries
// its failures, so a failed first request takes it down again.
func TestHeartbeatResumesKilledReplica(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.ReportFailure("n0")
	}
	clock.advance(400 * time.Millisecond)
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}
	if node, _ := p.Pick(0, nil); node != "" {
		t.Fatalf("a heartbeat inside the back-off brought the replica back: Pick = %q", node)
	}

	clock.advance(7 * time.Second) // the heartbeat expires
	p.Sweep(clock.now())
	if got := replicaState(t, p, "n0"); got != "down" {
		t.Fatalf("after 2×TTL: state = %s, want down", got)
	}
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}
	if node, _ := p.Pick(0, nil); node != "n0" {
		t.Fatalf("restarted replica not routable on its first heartbeat, Pick = %q", node)
	}
	if got := replicaState(t, p, "n0"); got != "healthy" {
		t.Fatalf("restarted replica is %s, want healthy", got)
	}
	p.ReportFailure("n0")
	if got := replicaState(t, p, "n0"); got != "down" {
		t.Fatalf("restarted replica failed its first request and is %s, want down", got)
	}
}

// routable reports whether node is a routing candidate by every measure
// the pool has: Pick, PickIngestPrimary, /healthz's primary and the
// routable counts of /cluster/status.
func routable(t *testing.T, p *Pool, node string) bool {
	t.Helper()
	picked, _ := p.Pick(0, nil)
	primary, _, _ := p.PickIngestPrimary(nil)
	advertised, _ := p.IngestTopology()
	st := p.Status()
	all := []bool{picked == node, primary == node, advertised == node, st.Routable == 1, st.Table[0].Routable}
	for _, b := range all[1:] {
		if b != all[0] {
			t.Fatalf("routability of %s disagrees: Pick, PickIngestPrimary, IngestTopology, Status counts = %v", node, all)
		}
	}
	return all[0]
}

func TestRequestFailuresDriveStateMachine(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	if err := p.Heartbeat(ingestBeat("n0", "primary", 0)); err != nil {
		t.Fatal(err)
	}

	p.ReportFailure("n0")
	if got := replicaState(t, p, "n0"); got != "suspect" {
		t.Fatalf("after 1 failure: %s, want suspect", got)
	}
	p.ReportFailure("n0")
	if !routable(t, p, "n0") {
		t.Fatal("replica unroutable before DownAfter failures")
	}
	p.ReportFailure("n0") // DownAfter = 3
	if got := replicaState(t, p, "n0"); got != "down" {
		t.Fatalf("after 3 failures: %s, want down", got)
	}
	if routable(t, p, "n0") {
		t.Fatal("down replica still routable")
	}

	// Back after its back-off, healthy but still carrying its failures.
	clock.advance(500 * time.Millisecond)
	if err := p.Heartbeat(ingestBeat("n0", "primary", 0)); err != nil {
		t.Fatal(err)
	}
	if got := replicaState(t, p, "n0"); got != "healthy" || !routable(t, p, "n0") {
		t.Fatalf("after back-off + heartbeat: %s, want routable healthy", got)
	}
	// A request success clears the ledger: DownAfter failures are needed
	// again, and the back-off starts over at ProbeInterval.
	p.ReportSuccess("n0")
	if got := replicaState(t, p, "n0"); got != "healthy" {
		t.Fatalf("after success: %s, want healthy", got)
	}
	p.ReportFailure("n0")
	p.ReportFailure("n0")
	if !routable(t, p, "n0") {
		t.Fatal("a success did not clear the failures")
	}
	p.ReportFailure("n0")
	clock.advance(500 * time.Millisecond)
	if err := p.Heartbeat(ingestBeat("n0", "primary", 0)); err != nil {
		t.Fatal(err)
	}
	if !routable(t, p, "n0") {
		t.Fatal("a success did not reset the back-off to ProbeInterval")
	}
}

// TestDownBackoffDoublesAndResets: a replica whose first request after
// coming back fails goes down again for twice as long, up to 16 ×
// ProbeInterval; a request success resets the back-off.
func TestDownBackoffDoublesAndResets(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, nil)
	if err := p.Heartbeat(beat("n0", 0)); err != nil {
		t.Fatal(err)
	}
	// comesBackAfter checks that a heartbeat brings n0 back after exactly
	// d of back-off and not a millisecond sooner.
	comesBackAfter := func(d time.Duration) {
		t.Helper()
		clock.advance(d - time.Millisecond)
		if err := p.Heartbeat(beat("n0", 0)); err != nil {
			t.Fatal(err)
		}
		if node, _ := p.Pick(0, nil); node != "" {
			t.Fatalf("back after %v of a %v back-off", d-time.Millisecond, d)
		}
		clock.advance(time.Millisecond)
		if err := p.Heartbeat(beat("n0", 0)); err != nil {
			t.Fatal(err)
		}
		if node, _ := p.Pick(0, nil); node != "n0" {
			t.Fatalf("not back after its %v back-off", d)
		}
	}

	p.ReportFailure("n0")
	p.ReportFailure("n0")
	if node, _ := p.Pick(0, nil); node != "n0" {
		t.Fatalf("down before DownAfter failures, Pick = %q", node)
	}
	p.ReportFailure("n0")
	if node, _ := p.Pick(0, nil); node != "" {
		t.Fatalf("down replica still routable: %q", node)
	}
	comesBackAfter(500 * time.Millisecond)
	for _, want := range []time.Duration{1, 2, 4, 8, 8} {
		p.ReportFailure("n0") // the first request after coming back
		if got := replicaState(t, p, "n0"); got != "down" {
			t.Fatalf("a failed first request after coming back left the replica %s", got)
		}
		comesBackAfter(want * time.Second) // 16 × ProbeInterval = 8s caps it
	}

	p.ReportSuccess("n0")
	for i := 0; i < 3; i++ {
		p.ReportFailure("n0")
	}
	comesBackAfter(500 * time.Millisecond)
}

func TestProbeRecoversDownReplica(t *testing.T) {
	clock := newFakeClock()
	var allow bool
	probes := 0
	probe := func(ctx context.Context, addr string) error {
		probes++
		if allow {
			return nil
		}
		return errors.New("still dead")
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

	// No probe while the back-off runs; one per round once it has passed.
	p.ProbeOnce(context.Background())
	if probes != 0 {
		t.Fatalf("%d probes inside the back-off, want 0", probes)
	}
	clock.advance(500 * time.Millisecond)
	p.ProbeOnce(context.Background())
	p.ProbeOnce(context.Background())
	if probes != 2 || replicaState(t, p, "n0") != "down" {
		t.Fatalf("after two failed probes: %d probes, state %s; want 2, down", probes, replicaState(t, p, "n0"))
	}

	allow = true
	p.ProbeOnce(context.Background())
	if got := replicaState(t, p, "n0"); got != "healthy" {
		t.Fatalf("after probe ok: %s, want healthy", got)
	}
	if node, _ := p.Pick(0, nil); node != "n0" {
		t.Fatalf("probed-back replica not routable, Pick = %q", node)
	}
	// The probe did not clear the failures: a failed first request takes
	// the replica down again, for twice as long.
	p.ReportFailure("n0")
	clock.advance(999 * time.Millisecond)
	p.ProbeOnce(context.Background())
	if probes != 3 || replicaState(t, p, "n0") != "down" {
		t.Fatalf("inside the doubled back-off: %d probes, state %s; want 3, down", probes, replicaState(t, p, "n0"))
	}
	clock.advance(time.Millisecond)
	p.ProbeOnce(context.Background())
	if got := replicaState(t, p, "n0"); got != "healthy" {
		t.Fatalf("after the doubled back-off and a probe ok: %s, want healthy", got)
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
	// b's next heartbeat makes it healthy again, and the fresher once more.
	if err := p.Heartbeat(hb2); err != nil {
		t.Fatal(err)
	}
	if node, _ := p.Pick(0, nil); node != "b" {
		t.Fatalf("Pick = %q, want b back (higher generation) after its heartbeat", node)
	}
}

// TestPickRejoinsRecoveredReplica: a replica with a healthy sibling
// is routed again once a probe answers, after one failure and after a
// back-off alike, so its next request can settle its ledger.
func TestPickRejoinsRecoveredReplica(t *testing.T) {
	clock := newFakeClock()
	p := testPool(t, clock, func(context.Context, string) error { return nil })
	for _, node := range []string{"a", "b"} {
		if err := p.Heartbeat(beat(node, 0)); err != nil {
			t.Fatal(err)
		}
	}
	split := func() map[string]int {
		seen := map[string]int{}
		for i := 0; i < 4; i++ {
			node, _ := p.Pick(0, nil)
			seen[node]++
		}
		return seen
	}

	p.ReportFailure("b")
	if seen := split(); seen["a"] != 4 {
		t.Fatalf("split with b suspect = %v, want all a", seen)
	}
	p.ProbeOnce(context.Background())
	if seen := split(); seen["a"] != 2 || seen["b"] != 2 {
		t.Fatalf("split after b's probe = %v, want 2/2", seen)
	}

	p.ReportFailure("b")
	p.ReportFailure("b") // the third in a row: down for ProbeInterval
	clock.advance(500 * time.Millisecond)
	p.ProbeOnce(context.Background())
	if seen := split(); seen["a"] != 2 || seen["b"] != 2 {
		t.Fatalf("split after b's back-off = %v, want 2/2", seen)
	}
	p.ReportFailure("b") // its first request after coming back
	clock.advance(500 * time.Millisecond)
	p.ProbeOnce(context.Background())
	if seen := split(); seen["a"] != 4 {
		t.Fatalf("split inside b's doubled back-off = %v, want all a", seen)
	}
	clock.advance(500 * time.Millisecond)
	p.ProbeOnce(context.Background())
	if seen := split(); seen["a"] != 2 || seen["b"] != 2 {
		t.Fatalf("split after b's doubled back-off = %v, want 2/2", seen)
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
