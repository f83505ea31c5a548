package serve

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"negmine/internal/fault"
	"negmine/internal/govern"
)

// Failpoints in the serving lifecycle (see internal/fault). All are no-ops
// unless armed by a test or NEGMINE_FAULTS.
const (
	// PointReload fires at the top of every snapshot load (initial and
	// reload); an error action models a re-mine or report read that fails.
	PointReload = "serve.reload"
	// PointSwap fires after a successful load, just before the pointer
	// swap; a sleep action widens the build→swap window for chaos tests,
	// an error action models a build that dies at the last moment.
	PointSwap = "serve.swap"
	// PointHandler fires at the top of every instrumented HTTP handler; a
	// panic action exercises the recovery middleware, a sleep action makes
	// an in-flight request slow for drain tests.
	PointHandler = "serve.handler"
)

// LoadFunc produces a fresh Snapshot — by re-reading a report file, or by
// running the full mining pipeline. It is called once at startup and again
// on every reload; it must not mutate any previously returned Snapshot.
type LoadFunc func(ctx context.Context) (*Snapshot, error)

// Server owns the current Snapshot and swaps it atomically on reload.
// Readers call Snapshot() and get an immutable value they can use for the
// whole request without holding any lock; a concurrent reload builds the
// next snapshot off to the side and publishes it with a single pointer
// store. A failed reload publishes nothing: the old snapshot keeps serving
// and the error is surfaced through Metrics and the log.
type Server struct {
	load       LoadFunc
	snap       atomic.Pointer[Snapshot]
	metrics    *Metrics
	logf       func(format string, args ...any)
	reqTimeout time.Duration      // per-request deadline (0 = none)
	gov        *govern.Controller // admission control (nil = admit everything)
	maxBody    int64              // POST body bound in bytes (0 = default, <0 = none)
	ingest     IngestSink         // POST /ingest backend (nil = endpoint disabled)
	nodeID     string             // cluster node identity ("" = unnamed)
	aux        map[string]http.Handler

	reloadMu  sync.Mutex  // serializes loads; readers never touch it
	reloading atomic.Bool // a reload is in flight (coalesces triggers)
}

// Option configures a Server.
type Option func(*Server)

// WithLogger replaces the default stderr logger.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithRequestTimeout bounds every HTTP request: handlers get a context that
// expires after d, and snapshot queries abort with 503 when it does. Zero
// (the default) means no per-request deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// WithGovernor installs an admission controller in front of every handler
// but /healthz and /metrics, which bypass admission so operators can always
// see what an overloaded daemon is doing. Shed requests get 503 with a
// Retry-After header. Nil (the default) admits everything.
func WithGovernor(c *govern.Controller) Option {
	return func(s *Server) { s.gov = c }
}

// WithNodeID names this daemon for cluster operation: the id is echoed as
// the X-Negmine-Node header on every response and in the /healthz and
// /metrics documents, so a client of a routed fleet can always tell which
// node answered. Empty (the default) leaves responses unmarked.
func WithNodeID(id string) Option {
	return func(s *Server) { s.nodeID = id }
}

// WithAuxHandler mounts an extra handler at path on the server's mux, wrapped
// in the same instrumentation armor (metrics under "other", panic recovery,
// body bound, request timeout) as the built-in endpoints. The daemon layer
// uses this for endpoints whose logic lives above serve — the replication
// tail stream and the manual-promotion trigger.
func WithAuxHandler(path string, h http.Handler) Option {
	return func(s *Server) {
		if s.aux == nil {
			s.aux = map[string]http.Handler{}
		}
		s.aux[path] = h
	}
}

// DefaultMaxBodyBytes bounds POST request bodies when WithMaxBodyBytes is
// not used.
const DefaultMaxBodyBytes int64 = 1 << 20

// WithMaxBodyBytes bounds every POST request body with http.MaxBytesReader;
// an oversized body gets 413. Zero (the default) selects
// DefaultMaxBodyBytes; a negative value disables the bound.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) { s.maxBody = n }
}

// NewServer builds a server and performs the initial load synchronously —
// the daemon refuses to start without a serveable snapshot.
func NewServer(ctx context.Context, load LoadFunc, opts ...Option) (*Server, error) {
	s := &Server{load: load}
	for _, o := range opts {
		o(s)
	}
	if s.metrics == nil {
		s.metrics = NewMetrics()
	}
	if s.logf == nil {
		logger := log.New(os.Stderr, "negmined: ", log.LstdFlags)
		s.logf = logger.Printf
	}
	if s.gov != nil {
		s.metrics.governStats = s.gov.Stats
	}
	s.metrics.node = s.nodeID
	if s.ingest != nil {
		s.metrics.ingestStats = s.ingest.Stats
	}
	snap, err := s.loadChecked(ctx)
	if err != nil {
		return nil, fmt.Errorf("serve: initial load: %w", err)
	}
	s.snap.Store(snap)
	return s, nil
}

// loadChecked runs the LoadFunc defensively: the serve.reload failpoint can
// veto it, a panicking loader is converted into an error instead of killing
// the daemon, and a nil snapshot (a loader bug) is rejected — the swap path
// must never publish one.
func (s *Server) loadChecked(ctx context.Context) (snap *Snapshot, err error) {
	if err := fault.Hit(PointReload); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer func() {
		if r := recover(); r != nil {
			snap, err = nil, fmt.Errorf("serve: load panicked: %v", r)
		}
	}()
	snap, err = s.load(ctx)
	if err == nil && snap == nil {
		return nil, fmt.Errorf("serve: load returned nil snapshot without error")
	}
	return snap, err
}

// Snapshot returns the current snapshot. The result is immutable and stays
// valid (and correct for its point in time) even if a reload swaps in a
// newer one mid-request.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Reload synchronously builds a fresh snapshot and swaps it in. On error
// the current snapshot is left in place, the failure is counted in metrics
// with the error text retained, and the error is returned. Concurrent
// Reload calls serialize; readers are never blocked either way.
func (s *Server) Reload(ctx context.Context) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.reloading.Store(true)
	defer s.reloading.Store(false)

	start := time.Now()
	snap, err := s.loadChecked(ctx)
	if err == nil {
		// serve.swap sits between "snapshot fully built" and "snapshot
		// visible": a sleep here stretches the window chaos tests probe
		// for torn state, an error models dying with the swap un-done.
		err = fault.Hit(PointSwap)
	}
	s.metrics.recordReload(err)
	if err != nil {
		s.logf("reload failed after %v (keeping snapshot of %d rules): %v",
			time.Since(start).Round(time.Millisecond), s.Snapshot().Len(), err)
		return err
	}
	old := s.snap.Swap(snap)
	s.logf("reload ok in %v: %d rules (was %d)",
		time.Since(start).Round(time.Millisecond), snap.Len(), old.Len())
	return nil
}

// TriggerReload starts a reload in the background unless one is already in
// flight (triggers coalesce, best-effort; Reload itself fully serializes).
// It reports whether a reload was started.
func (s *Server) TriggerReload(ctx context.Context) bool {
	if s.reloading.Load() {
		return false
	}
	go func() { _ = s.Reload(ctx) }()
	return true
}
