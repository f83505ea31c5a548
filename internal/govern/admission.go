package govern

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"negmine/internal/fault"
)

// Shed reasons, exported in Stats and /metrics.
const (
	ShedQueueFull = "queue-full"
	ShedDeadline  = "deadline"
	ShedStall     = "limiter-stall"
)

// RetryAfter is the back-off hint every shed carries: the HTTP layer sends
// it as the Retry-After header of its 503.
const RetryAfter = time.Second

// ShedError is the typed rejection every failed admission returns. The HTTP
// layer maps it to 503 with a Retry-After header; anything else treats it as
// "back off for RetryAfter and come back".
type ShedError struct {
	Reason string
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("govern: request shed (%s), retry after %v", e.Reason, RetryAfter)
}

// Config sizes a Controller. The zero value of every field falls back to
// the default documented on it.
type Config struct {
	// MaxConcurrent is the most admitted requests in flight at once
	// (default 64).
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a slot; the
	// (MaxQueue+1)-th waiter is shed with queue-full (default
	// 4×MaxConcurrent).
	MaxQueue int
}

// waiter is one queued admission request.
type waiter struct {
	ch      chan struct{} // closed on grant
	granted bool
}

// Controller is the admission layer: a fixed concurrency limit with a
// bounded FIFO queue in front of it. Acquire either admits (returning a
// release func the caller must invoke when the work finishes) or sheds with
// a *ShedError. It is safe for concurrent use.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	waiters  []*waiter // FIFO

	// Counters are atomics so Stats and /metrics read without the lock.
	admitted       atomic.Int64
	shedQueueFull  atomic.Int64
	shedDeadline   atomic.Int64
	shedStall      atomic.Int64
	queueHighWater atomic.Int64
}

// NewController builds an admission controller from cfg (zero fields get
// defaults; see Config).
func NewController(cfg Config) *Controller {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 64
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	return &Controller{cfg: cfg}
}

func shed(n *atomic.Int64, reason string) *ShedError {
	n.Add(1)
	return &ShedError{Reason: reason}
}

// Acquire admits one request, waiting in the bounded FIFO queue until a slot
// frees or ctx expires. On success the returned release func must be called
// once the request finishes (further calls are no-ops). Otherwise the
// request is shed and Acquire returns why.
func (c *Controller) Acquire(ctx context.Context) (func(), *ShedError) {
	// Failpoint: a sleep action stalls admission (the lock-convoy model), an
	// error action sheds outright.
	if fault.Hit(PointLimiterStall) != nil {
		return nil, shed(&c.shedStall, ShedStall)
	}

	c.mu.Lock()
	if c.inflight < c.cfg.MaxConcurrent && len(c.waiters) == 0 {
		c.inflight++
		c.mu.Unlock()
		c.admitted.Add(1)
		return c.releaseFunc(), nil
	}

	// No free slot: queue, bounded. The failpoint injects saturation.
	if fault.Hit(PointQueueFull) != nil || len(c.waiters) >= c.cfg.MaxQueue {
		c.mu.Unlock()
		return nil, shed(&c.shedQueueFull, ShedQueueFull)
	}
	w := &waiter{ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	if depth := int64(len(c.waiters)); depth > c.queueHighWater.Load() {
		c.queueHighWater.Store(depth)
	}
	c.mu.Unlock()

	select {
	case <-w.ch:
		c.admitted.Add(1)
		return c.releaseFunc(), nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// The grant raced the deadline: we own a slot but the deadline
			// has passed, so serving the request would only produce a
			// response nobody is waiting for. Give the slot back and shed.
			c.inflight--
			c.grantLocked()
		} else {
			for i, q := range c.waiters {
				if q == w {
					c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
					break
				}
			}
		}
		c.mu.Unlock()
		return nil, shed(&c.shedDeadline, ShedDeadline)
	}
}

// releaseFunc returns the once-only completion callback for an admitted
// request.
func (c *Controller) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.inflight--
			c.grantLocked()
			c.mu.Unlock()
		})
	}
}

// grantLocked hands freed slots to queued waiters in FIFO order.
func (c *Controller) grantLocked() {
	for c.inflight < c.cfg.MaxConcurrent && len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		w.granted = true
		c.inflight++
		close(w.ch)
	}
}

// Stats is a point-in-time snapshot of the controller, exported through
// /metrics.
type Stats struct {
	MaxConcurrent  int   `json:"maxConcurrent"`  // configured limit
	Inflight       int   `json:"inflight"`       // admitted, not yet released
	Queued         int   `json:"queued"`         // waiting for a slot
	MaxQueue       int   `json:"maxQueue"`       // queue bound
	QueueHighWater int64 `json:"queueHighWater"` // deepest the queue has been

	Admitted      int64 `json:"admitted"`
	ShedQueueFull int64 `json:"shedQueueFull"`
	ShedDeadline  int64 `json:"shedDeadline"`
	ShedStall     int64 `json:"shedLimiterStall"`
}

// Shed returns the total number of shed requests across all reasons.
func (s Stats) Shed() int64 {
	return s.ShedQueueFull + s.ShedDeadline + s.ShedStall
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	s := Stats{
		MaxConcurrent: c.cfg.MaxConcurrent,
		Inflight:      c.inflight,
		Queued:        len(c.waiters),
		MaxQueue:      c.cfg.MaxQueue,
	}
	c.mu.Unlock()
	s.QueueHighWater = c.queueHighWater.Load()
	s.Admitted = c.admitted.Load()
	s.ShedQueueFull = c.shedQueueFull.Load()
	s.ShedDeadline = c.shedDeadline.Load()
	s.ShedStall = c.shedStall.Load()
	return s
}
