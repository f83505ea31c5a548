package serve

import (
	"context"
	"sync"
	"sync/atomic"
)

// queryKey identifies one cached QueryItem result. The threshold and limit
// are part of the key, so a cached slice is always served verbatim.
type queryKey struct {
	name  string
	minRI float64
	limit int
}

// cacheEnt is one LRU entry; prev/next form an intrusive ring through the
// sentinel, most-recently-used first.
type cacheEnt struct {
	key        queryKey
	ids        []RuleID // immutable once stored
	prev, next *cacheEnt
}

// flight is one in-progress computation that concurrent misses for the same
// key coalesce onto.
type flight struct {
	done chan struct{}
	ids  []RuleID
	ok   bool
}

// CacheStats is the hot-item cache block of /metrics.
type CacheStats struct {
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Coalesced int64   `json:"coalesced"` // lookups that waited on another's computation
	HitRate   float64 `json:"hitRate"`
}

// queryCache is a bounded LRU of QueryItem results with singleflight
// coalescing: concurrent misses for the same key run the computation once
// and share the result. Each Snapshot owns its cache, so an atomic snapshot
// swap (reload, streaming re-mine) invalidates by construction — readers of
// the old snapshot keep its coherent cache, readers of the new one start
// cold. The hit path takes one mutex and copies ids into the caller's
// buffer; it performs no allocation.
type queryCache struct {
	mu      sync.Mutex
	max     int
	m       map[queryKey]*cacheEnt
	root    cacheEnt // sentinel: root.next = MRU, root.prev = LRU
	flights map[queryKey]*flight

	hits, misses, evictions, coalesced atomic.Int64
}

func newQueryCache(max int) *queryCache {
	if max < 1 {
		max = 1
	}
	c := &queryCache{
		max:     max,
		m:       make(map[queryKey]*cacheEnt, max),
		flights: map[queryKey]*flight{},
	}
	c.root.prev = &c.root
	c.root.next = &c.root
	return c
}

// get returns the cached ids for key, marking it most-recently-used. The
// returned slice is shared and must not be modified.
func (c *queryCache) get(key queryKey) ([]RuleID, bool) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.moveFront(e)
	c.mu.Unlock()
	c.hits.Add(1)
	return e.ids, true
}

// do computes the value for key exactly once across concurrent callers and
// appends the shared result to dst (the copying variant of doShared, for
// callers that own their result buffer).
func (c *queryCache) do(ctx context.Context, key queryKey, dst []RuleID, compute func([]RuleID) ([]RuleID, error)) ([]RuleID, error) {
	ids, err := c.doShared(ctx, key, func() ([]RuleID, error) { return compute(nil) })
	if err != nil {
		return dst, err
	}
	return append(dst, ids...), nil
}

// doShared computes the value for key exactly once across concurrent
// callers: the first caller runs compute and stores the freshly owned
// result; the rest wait and share it. On a failed flight (e.g. the leader's
// context expired) waiters fall back to computing for themselves — their own
// context may still be live. The returned slice is shared and immutable.
func (c *queryCache) doShared(ctx context.Context, key queryKey, compute func() ([]RuleID, error)) ([]RuleID, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		// Filled between the caller's get and now: a late hit.
		c.moveFront(e)
		c.mu.Unlock()
		c.hits.Add(1)
		return e.ids, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-f.done:
			if f.ok {
				return f.ids, nil
			}
			return compute()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	ids, err := compute()
	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		f.ids, f.ok = ids, true
		c.insert(key, ids)
	}
	c.mu.Unlock()
	close(f.done)
	return ids, err
}

// insert stores ids under key, evicting the least-recently-used entry when
// full. Callers hold c.mu.
func (c *queryCache) insert(key queryKey, ids []RuleID) {
	if e, ok := c.m[key]; ok {
		e.ids = ids
		c.moveFront(e)
		return
	}
	for len(c.m) >= c.max {
		lru := c.root.prev
		c.unlink(lru)
		delete(c.m, lru.key)
		c.evictions.Add(1)
	}
	e := &cacheEnt{key: key, ids: ids}
	c.m[key] = e
	c.pushFront(e)
}

func (c *queryCache) unlink(e *cacheEnt) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *queryCache) pushFront(e *cacheEnt) {
	e.prev = &c.root
	e.next = c.root.next
	e.prev.next = e
	e.next.prev = e
}

func (c *queryCache) moveFront(e *cacheEnt) {
	c.unlink(e)
	c.pushFront(e)
}

func (c *queryCache) stats() CacheStats {
	c.mu.Lock()
	entries := len(c.m)
	c.mu.Unlock()
	st := CacheStats{
		Entries:   entries,
		Capacity:  c.max,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Coalesced: c.coalesced.Load(),
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}
