package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"negmine/internal/ruleframe"
)

// idleConns counts the pool's idle connections to addr.
func (p *connPool) idleConns(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[addr])
}

// countConns makes a backend's server count the connections it accepts.
func countConns(n *atomic.Int64) func(*http.Server) {
	return func(s *http.Server) {
		s.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				n.Add(1)
			}
		}
	}
}

// TestRouterScoreForwardsClientBytes: the router forwards the /score body
// it validated as the client sent it, up to the end of its JSON value; it
// does not re-encode it.
func TestRouterScoreForwardsClientBytes(t *testing.T) {
	b := newShardBackend(t)
	h := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{b}).Handler()
	for _, tc := range []struct{ sent, want string }{
		{`{ "limit": 3,"basket":["b",  "a"] , "minRI":0.25}`, `{ "limit": 3,"basket":["b",  "a"] , "minRI":0.25}`},
		{`{"MinRI": 1e-1, "basket": ["été"]}`, `{"MinRI": 1e-1, "basket": ["été"]}`},
		{"{\"basket\":[\"a\"]}\n\t ", `{"basket":["a"]}`},
	} {
		if rec, _ := postScore(t, h, tc.sent); rec.Code != http.StatusOK {
			t.Fatalf("%q: status = %d\n%s", tc.sent, rec.Code, rec.Body.Bytes())
		}
		if got, _ := b.lastScore.Load().([]byte); string(got) != tc.want {
			t.Errorf("sent %q, the shard received %q, want %q", tc.sent, got, tc.want)
		}
	}
}

// getRules serves GET /rules?item=x through h under ctx.
func getRules(t *testing.T, ctx context.Context, h http.Handler) (int, RulesDoc) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rules?item=x", nil).WithContext(ctx))
	var doc RulesDoc
	if rec.Code == http.StatusOK || rec.Code == http.StatusPartialContent {
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("bad rules body: %v\n%s", err, rec.Body.Bytes())
		}
	}
	return rec.Code, doc
}

// slowPair is a fast shard 0 and a shard 1 that stalls every read.
func slowPair(t *testing.T, configure func(*http.Server)) (fast, slow *shardBackend) {
	fast, slow = newShardBackend(t), newShardBackendOn(t, configure)
	fast.rules = []WireRule{{Antecedent: []string{"a"}, Consequent: []string{"x"}, RuleInterest: 0.9}}
	slow.rules = []WireRule{{Antecedent: []string{"b"}, Consequent: []string{"x"}, RuleInterest: 0.5}}
	slow.delay.Store(int64(time.Minute))
	return fast, slow
}

// parkConn puts a new connection to addr in the router's idle pool.
func parkConn(t *testing.T, rt *Router, addr string) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rt.conns.put(&shardConn{addr: addr, nc: nc, br: bufio.NewReader(nc)}, time.Now())
}

// TestRouterShardTimeoutIsPartial: a shard that answers past ShardTimeout
// is listed missing in a 206 that arrives within the timeout and a
// margin, and its failure reaches the pool, which closes the replica's
// other idle connections. Replies are read in shard order, so the slow
// shard is put first as well as last: a reply that arrived in time is
// still read after an earlier shard used up the time, and its replica is
// not blamed.
func TestRouterShardTimeoutIsPartial(t *testing.T) {
	for _, slowAt := range []int{1, 0} {
		t.Run(fmt.Sprintf("slow=%d", slowAt), func(t *testing.T) {
			fast, slow := slowPair(t, nil)
			shards := [][]*shardBackend{{fast}, {slow}}
			if slowAt == 0 {
				shards[0], shards[1] = shards[1], shards[0]
			}
			const timeout = 300 * time.Millisecond
			rt := testRouter(t, RouterConfig{ShardTimeout: timeout, Logf: t.Logf}, shards...)
			parkConn(t, rt, slow.addr())
			parkConn(t, rt, slow.addr())
			slowNode, fastNode := fmt.Sprintf("s%d-r0", slowAt), fmt.Sprintf("s%d-r0", 1-slowAt)

			start := time.Now()
			code, doc := getRules(t, context.Background(), rt.Handler())
			took := time.Since(start)
			if code != http.StatusPartialContent || len(doc.MissingShards) != 1 || doc.MissingShards[0] != slowAt {
				t.Fatalf("status = %d, doc = %+v, want 206 with shard %d missing", code, doc, slowAt)
			}
			if len(doc.Rules) != 1 || doc.Rules[0].RuleInterest != 0.9 {
				t.Fatalf("rules = %+v, want the fast shard's", doc.Rules)
			}
			if took < timeout || took > timeout+250*time.Millisecond {
				t.Fatalf("the read took %v, want between %v and %v", took, timeout, timeout+250*time.Millisecond)
			}
			if got := replicaState(t, rt.Pool(), slowNode); got == "healthy" {
				t.Fatal("the timed-out replica is still healthy: its failure did not reach the pool")
			}
			if got := replicaState(t, rt.Pool(), fastNode); got != "healthy" {
				t.Fatalf("the fast replica is %s", got)
			}
			if n := rt.conns.idleConns(slow.addr()); n != 0 {
				t.Fatalf("%d idle connections to the timed-out replica, want 0", n)
			}
			if n := rt.conns.idleConns(fast.addr()); n != 1 {
				t.Fatalf("%d idle connections to the fast replica, want 1", n)
			}
		})
	}
}

// TestRouterSlowShardBacksOff: a one-replica shard whose /healthz answers
// at once but whose /rules outlasts the shard timeout is listed missing in
// every read, and no more than DownAfter reads plus one per back-off
// window reach it: each time the back-off passes, the replica comes back,
// its first read fails, and it goes down for twice as long.
func TestRouterSlowShardBacksOff(t *testing.T) {
	var slowReads atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		slowReads.Add(1)
		select {
		case <-r.Context().Done():
		case <-time.After(time.Minute):
		}
	}))
	t.Cleanup(slow.Close)
	fast := newShardBackend(t)
	fast.rules = []WireRule{{Antecedent: []string{"a"}, Consequent: []string{"x"}, RuleInterest: 0.9}}

	const probeEvery, downAfter = 500 * time.Millisecond, 3
	clock := newFakeClock()
	rt, err := NewRouter(RouterConfig{Shards: 2, ShardTimeout: 50 * time.Millisecond, Logf: t.Logf,
		Pool: PoolConfig{ProbeInterval: probeEvery, DownAfter: downAfter, Now: clock.now}})
	if err != nil {
		t.Fatal(err)
	}
	beats := func() {
		for shard, addr := range []string{fast.addr(), strings.TrimPrefix(slow.URL, "http://")} {
			if err := rt.Pool().Heartbeat(Heartbeat{Node: fmt.Sprintf("s%d", shard), Addr: addr, Shard: shard, Shards: 2}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// One read, heartbeat and probe round every half probe interval of pool
	// time, over 10 s of it.
	const step, span = probeEvery / 2, 10 * time.Second
	h := rt.Handler()
	for elapsed := time.Duration(0); elapsed < span; elapsed += step {
		beats()
		code, doc := getRules(t, context.Background(), h)
		if code != http.StatusPartialContent || len(doc.MissingShards) != 1 || doc.MissingShards[0] != 1 ||
			len(doc.Rules) != 1 || doc.Rules[0].RuleInterest != 0.9 {
			t.Fatalf("at %v: status = %d, doc = %+v; want 206 missing shard 1, with the fast shard's rule", elapsed, code, doc)
		}
		clock.advance(step)
		rt.Pool().ProbeOnce(context.Background())
	}

	// The back-off windows that begin within the span: ProbeInterval, then
	// doubling, capped at 16 × ProbeInterval.
	windows := 0
	for d, end := probeEvery, time.Duration(0); end < span; d = min(2*d, 16*probeEvery) {
		end += d
		windows++
	}
	got := slowReads.Load()
	t.Logf("%d reads reached the slow replica over %v, %d back-off windows", got, span, windows)
	if got > downAfter+int64(windows) {
		t.Fatalf("%d reads reached the slow replica, want ≤ DownAfter + windows = %d", got, downAfter+windows)
	}
	if got <= downAfter {
		t.Fatalf("%d reads reached the slow replica: it never came back after its back-off", got)
	}
}

// TestRouterClientHangUpReturnsPromptly: a client that hangs up while a
// shard is still answering gets the handler back at once, whatever
// ShardTimeout says; the abandoned connection is closed, not pooled; the
// replica is not blamed; and the next read succeeds on a new connection.
func TestRouterClientHangUpReturnsPromptly(t *testing.T) {
	var dialed atomic.Int64
	fast, slow := slowPair(t, countConns(&dialed))
	rt := testRouter(t, RouterConfig{ShardTimeout: time.Minute, Logf: t.Logf}, []*shardBackend{fast}, []*shardBackend{slow})
	h := rt.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hangUp := time.AfterFunc(100*time.Millisecond, cancel)
	defer hangUp.Stop()
	start := time.Now()
	getRules(t, ctx, h)
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("the handler returned %v after the client hung up", took)
	}
	if n := rt.conns.idleConns(fast.addr()) + rt.conns.idleConns(slow.addr()); n != 0 {
		t.Fatalf("%d of the abandoned read's connections pooled, want 0", n)
	}
	if got := replicaState(t, rt.Pool(), "s1-r0"); got != "healthy" {
		t.Fatalf("the client's hang-up was blamed on the replica: %s", got)
	}

	slow.delay.Store(0)
	if code, doc := getRules(t, context.Background(), h); code != http.StatusOK || len(doc.Rules) != 2 {
		t.Fatalf("the next read: status = %d, doc = %+v", code, doc)
	}
	if n := dialed.Load(); n != 2 {
		t.Fatalf("the slow replica accepted %d connections, want 2: the abandoned one was reused", n)
	}
}

// TestShardConnRedialsIdleClosed: a pooled connection the shard's
// IdleTimeout closed is redialed once, quietly: the read succeeds, no retry
// is spent or denied, and the replica stays healthy.
func TestShardConnRedialsIdleClosed(t *testing.T) {
	var dialed, closed atomic.Int64
	b := newShardBackendOn(t, func(s *http.Server) {
		s.IdleTimeout = 50 * time.Millisecond
		s.ConnState = func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				dialed.Add(1)
			case http.StateClosed:
				closed.Add(1)
			}
		}
	})
	b.rules = []WireRule{{Antecedent: []string{"a"}, Consequent: []string{"x"}, RuleInterest: 0.5}}
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{b})
	read := func() {
		t.Helper()
		if code, _ := getRules(t, context.Background(), rt.Handler()); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
	}
	read()
	if n := rt.conns.idleConns(b.addr()); n != 1 {
		t.Fatalf("%d idle connections after a read, want 1", n)
	}
	for deadline := time.Now().Add(5 * time.Second); closed.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the shard never closed the idle connection")
		}
	}
	read()
	if n := dialed.Load(); n != 2 {
		t.Fatalf("the shard accepted %d connections, want 2", n)
	}
	if r, d := rt.metrics.retries.Load(), rt.metrics.retryDenied.Load(); r != 0 || d != 0 {
		t.Fatalf("retries = %d, retryDenied = %d, want 0 and 0", r, d)
	}
	if got := replicaState(t, rt.Pool(), "s0-r0"); got != "healthy" {
		t.Fatalf("replica is %s after a redial", got)
	}
}

// rawShard is a replica written by hand over TCP, so that a test owns every
// byte of its replies. It answers the n-th request it reads (from 0, over
// all connections) with reply(n) and then hangs up if reply says so.
type rawShard struct {
	ln    net.Listener
	conns atomic.Int64 // connections accepted
}

// rawFrame is the frame a shard answers /rules?item=x with when it holds
// one rule, a =/=> x.
func rawFrame(t *testing.T) []byte {
	prefix, err := ruleframe.AppendRulesPrefix(nil, "x", []string{"x"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rule := WireRule{Antecedent: []string{"a"}, Consequent: []string{"x"}, RuleInterest: 0.5}
	return ruleframe.AppendEntry(ruleframe.AppendHeader(nil, prefix, 1), rule.RuleInterest, ruleframe.AppendSignature(nil, rule.Antecedent, rule.Consequent), elemJSON(t, rule))
}

// rawReply is the head of a frame reply, with extra header lines.
func rawReply(extra string) string {
	return "HTTP/1.1 200 OK\r\nContent-Type: " + ruleframe.MediaType + "\r\n" + extra + "\r\n"
}

func newRawShard(t *testing.T, reply func(n int64) (raw []byte, hangUp bool)) *rawShard {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawShard{ln: ln}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		open []net.Conn
		reqs atomic.Int64
	)
	serve := func(nc net.Conn) {
		defer wg.Done()
		defer nc.Close()
		br := bufio.NewReader(nc)
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, req.Body)
			raw, hangUp := reply(reqs.Add(1) - 1)
			if _, err := nc.Write(raw); err != nil || hangUp {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			mu.Lock()
			open = append(open, nc)
			mu.Unlock()
			wg.Add(1)
			go serve(nc)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range open {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return s
}

// rawRouter fronts one raw shard and returns a /rules?item=x reader.
func rawRouter(t *testing.T, s *rawShard) (*Router, func() (int, RulesDoc)) {
	rt, err := NewRouter(RouterConfig{Shards: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Pool().Heartbeat(Heartbeat{Node: "s0-r0", Addr: s.ln.Addr().String(), Shard: 0, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	return rt, func() (int, RulesDoc) {
		t.Helper()
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rules?item=x", nil))
		var doc RulesDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.Bytes(), err)
		}
		return rec.Code, doc
	}
}

// TestShardConnFailedReplyNotPooled: a 5xx read whole is a failed attempt,
// and its connection is closed with the replica's other idle ones, not put
// back in the pool.
func TestShardConnFailedReplyNotPooled(t *testing.T) {
	b := newShardBackend(t)
	b.fail.Store(true)
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{b})
	if code, _ := getRules(t, context.Background(), rt.Handler()); code != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206", code)
	}
	if n := rt.conns.idleConns(b.addr()); n != 0 {
		t.Fatalf("%d idle connections to the failed replica, want 0", n)
	}
}

// TestConnPoolExpiresIdle: a sweep closes the connections idle for
// idleConnTimeout and keeps the younger ones, and the router's Run loop
// sweeps with no read arriving.
func TestConnPoolExpiresIdle(t *testing.T) {
	closed := func(peer net.Conn) bool {
		_ = peer.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		_, err := peer.Read(make([]byte, 1))
		return err == io.EOF
	}
	p := newConnPool()
	t0 := time.Unix(1000, 0)
	older, olderPeer := net.Pipe()
	younger, youngerPeer := net.Pipe()
	p.put(&shardConn{addr: "a", nc: older}, t0)
	p.put(&shardConn{addr: "a", nc: younger}, t0.Add(time.Second))
	p.sweep(t0.Add(idleConnTimeout - time.Nanosecond))
	if n := p.idleConns("a"); n != 2 {
		t.Fatalf("%d idle connections before either expired, want 2", n)
	}
	p.sweep(t0.Add(idleConnTimeout))
	if n := p.idleConns("a"); n != 1 || !closed(olderPeer) || closed(youngerPeer) {
		t.Fatalf("%d idle connections after the older one expired, want 1, and only the older closed", n)
	}
	p.sweep(t0.Add(time.Second + idleConnTimeout))
	if n := p.idleConns("a"); n != 0 || !closed(youngerPeer) {
		t.Fatalf("%d idle connections after both expired, want 0, and both closed", n)
	}

	rt, err := NewRouter(RouterConfig{Shards: 1, Pool: PoolConfig{ProbeInterval: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	stale, stalePeer := net.Pipe()
	rt.conns.put(&shardConn{addr: "a", nc: stale}, time.Now().Add(-idleConnTimeout))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { rt.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()
	for deadline := time.Now().Add(5 * time.Second); rt.conns.idleConns("a") != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Run never expired the idle connection")
		}
	}
	if !closed(stalePeer) {
		t.Fatal("Run dropped the idle connection without closing it")
	}
}

// TestShardConnTornReplyNotReused: a reply cut short of its Content-Length
// and then closed is a failed attempt, reported to the pool, and its
// connection is not reused.
func TestShardConnTornReplyNotReused(t *testing.T) {
	frame := rawFrame(t)
	s := newRawShard(t, func(n int64) ([]byte, bool) {
		head := rawReply("Content-Length: " + strconv.Itoa(len(frame)) + "\r\n")
		if n == 0 {
			return append([]byte(head), frame[:len(frame)/2]...), true
		}
		return append([]byte(head), frame...), false
	})
	rt, read := rawRouter(t, s)
	if code, doc := read(); code != http.StatusPartialContent || len(doc.MissingShards) != 1 {
		t.Fatalf("torn reply: status = %d, doc = %+v, want 206 with the shard missing", code, doc)
	}
	if got := replicaState(t, rt.Pool(), "s0-r0"); got == "healthy" {
		t.Fatal("the torn reply was not reported to the pool")
	}
	if n := rt.conns.idleConns(s.ln.Addr().String()); n != 0 {
		t.Fatal("the torn reply's connection was pooled")
	}
	if code, doc := read(); code != http.StatusOK || len(doc.Rules) != 1 {
		t.Fatalf("next read: status = %d, doc = %+v", code, doc)
	}
	if n := s.conns.Load(); n != 2 {
		t.Fatalf("the shard accepted %d connections, want 2", n)
	}
}

// TestShardConnCloseReplyDropped: a reply that says Connection: close is
// read whole, and its connection is then dropped rather than pooled.
func TestShardConnCloseReplyDropped(t *testing.T) {
	frame := rawFrame(t)
	s := newRawShard(t, func(int64) ([]byte, bool) {
		return append([]byte(rawReply("Connection: close\r\nContent-Length: "+strconv.Itoa(len(frame))+"\r\n")), frame...), true
	})
	rt, read := rawRouter(t, s)
	for i := 0; i < 2; i++ {
		if code, doc := read(); code != http.StatusOK || len(doc.Rules) != 1 {
			t.Fatalf("read %d: status = %d, doc = %+v", i, code, doc)
		}
		if n := rt.conns.idleConns(s.ln.Addr().String()); n != 0 {
			t.Fatalf("read %d: %d idle connections, want 0", i, n)
		}
	}
	if n := s.conns.Load(); n != 2 {
		t.Fatalf("the shard accepted %d connections, want 2", n)
	}
	if r := rt.metrics.retries.Load(); r != 0 {
		t.Fatalf("retries = %d, want 0", r)
	}
}

// TestShardConnChunkedReply: a chunked reply is read whole, and its
// connection serves the next read.
func TestShardConnChunkedReply(t *testing.T) {
	frame := rawFrame(t)
	s := newRawShard(t, func(int64) ([]byte, bool) {
		out := []byte(rawReply("Transfer-Encoding: chunked\r\n"))
		for rest := frame; len(rest) > 0; {
			n := min(len(rest), 7)
			out = fmt.Appendf(out, "%x\r\n%s\r\n", n, rest[:n])
			rest = rest[n:]
		}
		return append(out, "0\r\n\r\n"...), false
	})
	_, read := rawRouter(t, s)
	for i := 0; i < 2; i++ {
		if code, doc := read(); code != http.StatusOK || len(doc.Rules) != 1 || doc.Rules[0].RuleInterest != 0.5 {
			t.Fatalf("read %d: status = %d, doc = %+v", i, code, doc)
		}
	}
	if n := s.conns.Load(); n != 1 {
		t.Fatalf("the shard accepted %d connections, want 1", n)
	}
}

// TestRouterConcurrentReadsAndHangUps: readers share the connection pool
// while a third of them hang up at random moments. A reader that stays
// gets the full answer every time: no connection a hang-up expired is
// ever handed to it.
func TestRouterConcurrentReadsAndHangUps(t *testing.T) {
	b0, b1 := newShardBackend(t), newShardBackend(t)
	b0.rules = []WireRule{{Antecedent: []string{"a"}, Consequent: []string{"x"}, RuleInterest: 0.9}}
	b1.rules = []WireRule{{Antecedent: []string{"b"}, Consequent: []string{"x"}, RuleInterest: 0.5}}
	rt := testRouter(t, RouterConfig{Logf: t.Logf}, []*shardBackend{b0}, []*shardBackend{b1})
	h := rt.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (g+i)%3 == 0 {
					time.AfterFunc(time.Duration(i%7)*50*time.Microsecond, cancel)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rules?item=x", nil).WithContext(ctx))
				hungUp := ctx.Err() != nil
				cancel()
				switch {
				case rec.Code != http.StatusOK && rec.Code != http.StatusPartialContent:
					t.Errorf("reader %d, read %d: status %d", g, i, rec.Code)
				case !hungUp && rec.Code != http.StatusOK:
					t.Errorf("reader %d, read %d: a reader that stayed got %d\n%s", g, i, rec.Code, rec.Body.Bytes())
				}
			}
		}(g)
	}
	wg.Wait()
	for _, b := range []*shardBackend{b0, b1} {
		if n := rt.conns.idleConns(b.addr()); n > maxIdlePerAddr {
			t.Errorf("%d idle connections to %s, want ≤ %d", n, b.addr(), maxIdlePerAddr)
		}
	}
}
