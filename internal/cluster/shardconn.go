package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"negmine/internal/fault"
	"negmine/internal/ruleframe"
)

// The router talks to its shards over HTTP/1.1 keep-alive connections it
// pools itself, so that a routed read can write every shard's request
// before it reads any reply, all on the handler's goroutine.
const (
	dialTimeout     = 1 * time.Second
	maxIdlePerAddr  = 64
	idleConnTimeout = 90 * time.Second
	// lateGrace is how long a reply still has when its read begins at or
	// past the exchange's deadline. Replies are read in shard order, so an
	// earlier shard that used up the time must not fail a reply that is
	// already waiting in its socket.
	lateGrace = 50 * time.Millisecond
)

// expired is a deadline in the past: setting it fails a connection's
// pending and future reads and writes at once.
var expired = time.Unix(1, 0)

// shardConn is one keep-alive connection to a replica.
type shardConn struct {
	addr   string
	nc     net.Conn
	br     *bufio.Reader
	reused bool      // it has served a request before this one
	keep   bool      // its reply was read whole and it may serve another
	idleAt time.Time // when it was last put back in the pool
}

// connPool holds the idle shard connections by replica address.
type connPool struct {
	mu   sync.Mutex
	idle map[string][]*shardConn // oldest first
}

func newConnPool() *connPool { return &connPool{idle: map[string][]*shardConn{}} }

// get takes addr's most recently used idle connection, or returns nil.
func (p *connPool) get(addr string) *shardConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[addr]
	if len(list) == 0 {
		return nil
	}
	c := list[len(list)-1]
	list[len(list)-1] = nil
	p.idle[addr] = list[:len(list)-1]
	return c
}

// put returns c to the pool, or closes it when its address already holds
// maxIdlePerAddr idle connections.
func (p *connPool) put(c *shardConn, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[c.addr]
	if len(list) >= maxIdlePerAddr {
		c.nc.Close()
		return
	}
	c.reused, c.idleAt = true, now
	p.idle[c.addr] = append(list, c)
}

// sweep closes every connection idle for idleConnTimeout at now. The
// router's Run loop calls it, so connections expire without new traffic.
func (p *connPool) sweep(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr, list := range p.idle {
		n := 0
		for n < len(list) && now.Sub(list[n].idleAt) >= idleConnTimeout {
			list[n].nc.Close()
			n++
		}
		if n == len(list) {
			delete(p.idle, addr)
		} else if n > 0 {
			p.idle[addr] = append(list[:0], list[n:]...)
		}
	}
}

// closeIdle closes addr's idle connections: its replica has just failed,
// and what it left open is unlikely to serve again.
func (p *connPool) closeIdle(addr string) {
	p.mu.Lock()
	list := p.idle[addr]
	delete(p.idle, addr)
	p.mu.Unlock()
	for _, c := range list {
		c.nc.Close()
	}
}

// shardRequest is the request a routed call sends every replica it tries,
// written out by hand.
type shardRequest struct {
	method, target string
	frame          bool   // ask for a rule frame: the two read endpoints
	body           []byte // sent with a Content-Length when non-nil
}

// render writes the request out for host, sized once: 160 bytes cover the
// header lines' fixed text.
func (r *shardRequest) render(host string) []byte {
	b := make([]byte, 0, 160+len(r.method)+len(r.target)+len(host)+len(r.body))
	b = append(b, r.method...)
	b = append(b, ' ')
	b = append(b, r.target...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	if r.frame {
		b = append(b, "\r\nAccept: "+ruleframe.MediaType...)
	}
	if r.body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(r.body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	return append(b, r.body...)
}

// exchange is one routed request's shard traffic: the connections it has
// taken, all under one deadline. When the client's request context is
// done, every connection it holds expires at once and none is pooled again.
type exchange struct {
	pool     *connPool
	ctx      context.Context
	req      shardRequest
	deadline time.Time
	stop     func() bool // deregisters expire from ctx

	mu    sync.Mutex // orders expire against the handler's deadlines
	gone  bool       // expire has run
	conns []*shardConn
}

// begin starts an exchange of req, whose traffic must end by timeout from
// now. The caller ends it.
func (p *connPool) begin(ctx context.Context, req shardRequest, timeout time.Duration) *exchange {
	x := &exchange{pool: p, ctx: ctx, req: req, deadline: time.Now().Add(timeout)}
	if ctx.Done() != nil {
		x.stop = context.AfterFunc(ctx, x.expire)
	}
	return x
}

// expire runs when the client's context is done.
func (x *exchange) expire() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.gone = true
	for _, c := range x.conns {
		_ = c.nc.SetDeadline(expired) // a closed connection has nothing to expire
	}
}

// live reports whether the exchange may start another attempt.
func (x *exchange) live() bool { return x.ctx.Err() == nil && time.Now().Before(x.deadline) }

// by returns when a reply whose read begins now must be read: the
// exchange's deadline, or lateGrace from now when that is later.
func (x *exchange) by() time.Time {
	if by := time.Now().Add(lateGrace); by.After(x.deadline) {
		return by
	}
	return x.deadline
}

// arm sets conn's deadline to by, or expires it when the client has gone.
// Called with x.mu held.
func (x *exchange) arm(conn *shardConn, by time.Time) error {
	if x.gone {
		by = expired
	}
	return conn.nc.SetDeadline(by)
}

// end returns to the pool each connection whose reply was read whole, and
// closes the rest. If the client left, it closes them all.
func (x *exchange) end() {
	gone := x.stop != nil && !x.stop()
	now := time.Now()
	x.mu.Lock() // a running expire finishes first
	defer x.mu.Unlock()
	for _, c := range x.conns {
		if c.keep && !gone {
			x.pool.put(c, now)
		} else {
			c.nc.Close() // a second Close of a dropped connection is harmless
		}
	}
}

// shardCall is one attempt against one replica: its request is sent, and
// its reply read later.
type shardCall struct {
	node, addr string
	conn       *shardConn
	err        error // the attempt's failure so far
}

// send writes c's request on an idle connection to its replica, or on a
// new one. A reused connection that fails the write is redialed once.
func (x *exchange) send(c *shardCall) {
	if c.err = fault.Hit(PointDial); c.err != nil {
		return
	}
	c.err = x.write(c, x.pool.get(c.addr), x.deadline)
	if x.stale(c) {
		c.err = x.write(c, nil, x.deadline)
	}
}

// stale reports whether c failed on a reused connection for a reason other
// than the deadline: the replica closed it while it sat idle.
func (x *exchange) stale(c *shardCall) bool {
	return c.err != nil && c.conn != nil && c.conn.reused && !errors.Is(c.err, os.ErrDeadlineExceeded)
}

// write registers conn with the exchange (dialing one when it is nil) and
// writes the request on it, all by the time by.
func (x *exchange) write(c *shardCall, conn *shardConn, by time.Time) error {
	if conn == nil {
		d := net.Dialer{Timeout: dialTimeout, Deadline: by}
		nc, err := d.DialContext(x.ctx, "tcp", c.addr)
		if err != nil {
			c.conn = nil
			return err
		}
		conn = &shardConn{addr: c.addr, nc: nc, br: bufio.NewReader(nc)}
	}
	c.conn, conn.keep = conn, false
	x.mu.Lock()
	x.conns = append(x.conns, conn)
	err := x.arm(conn, by)
	x.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = conn.nc.Write(x.req.render(c.addr))
	return err
}

// receive reads c's reply and its body, returning the body's length with
// the result. The reply has until the exchange's deadline, or lateGrace
// when its read begins later than that allows. A reused connection that
// fails before the first byte of the reply is redialed once and the
// request written again; that is neither a replica failure nor a retry.
// The connection is kept for the pool only when the reply was read whole
// and the replica did not close it.
func (x *exchange) receive(c *shardCall) (shardResult, int64) {
	by := x.by()
	if c.err == nil && by.After(x.deadline) {
		x.mu.Lock()
		c.err = x.arm(c.conn, by)
		x.mu.Unlock()
	}
	if c.err == nil {
		if _, c.err = c.conn.br.Peek(1); x.stale(c) {
			if c.err = x.write(c, nil, by); c.err == nil {
				_, c.err = c.conn.br.Peek(1)
			}
		}
	}
	if c.err != nil {
		return shardResult{err: c.err}, 0
	}
	resp, err := http.ReadResponse(c.conn.br, nil)
	if err != nil {
		return shardResult{err: err}, 0
	}
	// Shards declare the length of their replies, so the buffer is sized
	// once; the declaration is trusted only up to presizeShardBody.
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		buf.Grow(int(min(n, presizeShardBody)) + bytes.MinRead)
	}
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, maxShardBody+1))
	if err != nil {
		return shardResult{err: err}, n
	}
	if n > maxShardBody {
		return shardResult{err: fmt.Errorf("cluster: shard %s response exceeds %d bytes", c.node, maxShardBody)}, n
	}
	c.conn.keep = !resp.Close && c.conn.br.Buffered() == 0
	return shardResult{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: buf.Bytes()}, n
}
