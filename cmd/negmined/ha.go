package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"negmine/internal/artifact"
	"negmine/internal/cluster"
	"negmine/internal/fault"
	"negmine/internal/item"
	"negmine/internal/metrics"
	"negmine/internal/seglog"
	"negmine/internal/serve"
	"negmine/internal/txdb"
)

// High-availability ingest: a primary/standby pair of negmined daemons
// replicating one logical segment log.
//
//   - Sealed segments travel through a shared artifact store (-seglog-store):
//     the primary's Shipper publishes them, the standby's Follower adopts
//     them in TID order.
//   - The open tail travels over HTTP: the standby long-polls the primary's
//     GET /seglog/tail and replays transactions (and dedup-window entries)
//     with their TIDs preserved, sealing at the primary's seal boundaries.
//   - Every tail poll renews the standby's lease on the primary; when the
//     lease expires (or POST /ha/promote is called) the standby drains the
//     store one last time, bumps the fencing epoch past everything it has
//     seen, publishes the new epoch in the store, and starts accepting
//     writes as the new primary.
//   - A deposed primary discovers the higher epoch on its next store scan
//     (or at restart), durably advances its log's epoch, and from then on
//     its own appends — which still carry the old token — are rejected by
//     the log with ErrFenced and counted in /metrics.
//
// Zero acknowledged-write loss rests on the replication ack: while a live
// follower is attached, the primary answers /ingest only after the standby
// has reported the batch durable (bounded by -ha-ack-timeout, then 503 and
// the client retries — idempotently, thanks to the dedup window). With no
// live follower the primary degrades to solo durability and says so in its
// role metrics.

// HA ingest roles, advertised in heartbeats, /healthz and /metrics.
const (
	haRolePrimary = "primary"
	haRoleStandby = "standby"
	haRoleFenced  = "fenced"
)

// haShipEvery is the primary's store replication (and fencing-discovery)
// interval, and haTailWait the standby's long-poll hold.
const (
	haShipEvery = 200 * time.Millisecond
	haTailWait  = 500 * time.Millisecond
	// haTailCap bounds one tail response; More tells the follower to poll
	// again immediately.
	haTailCap = 2048
)

// haParams is the HA pair's wiring, which build assembles from the -ha-*
// flags, the node identity and the daemon's log.
type haParams struct {
	log        *seglog.Log
	store      *artifact.FS // -seglog-store
	node       string
	startRole  string // -ha-role: haRolePrimary or haRoleStandby
	peer       string // standby: primary base URL, no trailing slash
	leaseTTL   time.Duration
	ackTimeout time.Duration
	ingest     *ingestController
	logf       func(format string, args ...any)
}

// haController runs one node's side of the primary/standby protocol.
type haController struct {
	haParams
	client *http.Client

	mu           sync.Mutex
	role         string
	token        int64 // fencing token held as writer (primary/fenced roles)
	maxEpochSeen int64 // highest epoch observed in store or tail responses
	lag          int   // standby: sealed-segment lag behind the primary

	// Primary-side replication-ack state: the freshest durable TID any
	// follower reported, when it last reported, and a broadcast channel
	// closed each time the watermark advances.
	standbyDurable int64
	standbySeen    time.Time
	ackCh          chan struct{}

	shipper  *seglog.Shipper  // primary only
	follower *seglog.Follower // standby only
	lease    *cluster.Lease   // standby only
}

// newHAController reconciles the node's boot-time epoch against the
// replication store and returns the controller with its initial role. A
// configured primary that finds a higher epoch in the store was deposed
// while it was down: it comes back fenced, never primary.
func newHAController(p haParams) (*haController, error) {
	storeEpoch, err := seglog.StoreEpoch(p.store)
	if err != nil {
		return nil, fmt.Errorf("ha: reading store epoch: %w", err)
	}
	h := &haController{
		haParams:     p,
		client:       &http.Client{Timeout: haTailWait + 2*time.Second},
		maxEpochSeen: storeEpoch,
	}
	switch p.startRole {
	case haRolePrimary:
		h.token = h.log.Epoch()
		if storeEpoch > h.token {
			// Deposed before this restart. Advance the log durably so even a
			// crash right here leaves the fence in place; the stale token is
			// kept so late appends are rejected (and counted) by the log.
			if err := h.log.AdvanceEpoch(storeEpoch); err != nil {
				return nil, err
			}
			h.role = haRoleFenced
			h.logf("ha: store epoch %d is above ours (%d): starting fenced", storeEpoch, h.token)
		} else {
			h.role = haRolePrimary
			h.shipper = &seglog.Shipper{Log: h.log, Store: h.store, Node: h.node, Epoch: h.token}
		}
	case haRoleStandby:
		if storeEpoch > h.log.Epoch() {
			if err := h.log.AdvanceEpoch(storeEpoch); err != nil {
				return nil, err
			}
		}
		h.role = haRoleStandby
		h.follower = &seglog.Follower{Log: h.log, Store: h.store}
	default:
		return nil, fmt.Errorf("ha: unknown role %q", p.startRole)
	}
	return h, nil
}

// start launches the role's background loop. Called once, after the server
// is constructed but before (or concurrently with) the listener accepting
// traffic — the boot-time fence decision already happened in the
// constructor, so an early /ingest cannot slip past a restart-discovered
// demotion.
func (h *haController) start(ctx context.Context) {
	switch h.currentRole() {
	case haRolePrimary:
		go h.shipLoop(ctx)
	case haRoleStandby:
		h.lease = cluster.NewLease(h.leaseTTL, nil)
		go h.followLoop(ctx)
	case haRoleFenced:
		// Nothing to run: the node serves reads and rejects writes.
	}
}

func (h *haController) currentRole() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.role
}

// roleLag reports the node's role and replication lag for heartbeats,
// /healthz and /metrics.
func (h *haController) roleLag() (string, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.role, h.lag
}

// ingestBatch is the HA write path: standbys refuse outright; primaries
// (and deposed primaries that have not noticed yet) append with their held
// token — the log is the fencing authority, so a stale token is rejected
// and counted there, never silently applied. A fresh append is acknowledged
// only after the replication ack (or its timeout policy) clears it.
func (h *haController) ingestBatch(ctx context.Context, sets []item.Itemset, key string, seq uint64) (seglog.AppendResult, error) {
	h.mu.Lock()
	role, token := h.role, h.token
	h.mu.Unlock()
	if role == haRoleStandby {
		return seglog.AppendResult{}, fmt.Errorf("%w (standby; tailing %s)", serve.ErrIngestNotPrimary, h.peer)
	}
	res, err := h.log.AppendBatch(seglog.Batch{Baskets: sets, Epoch: token, Key: key, Seq: seq})
	if err != nil {
		return res, err
	}
	if !res.Duplicate {
		if err := h.waitReplicated(ctx, res.Last); err != nil {
			// The batch is durable locally but not confirmed on the standby:
			// refuse the ack. The client's keyed retry is answered from the
			// dedup window once replication catches up.
			return res, err
		}
	}
	return res, nil
}

// waitReplicated blocks until a follower has reported TIDs through last
// durable, the ack timeout passes, or the request dies. With no recently
// seen follower the primary is in degraded solo-durability mode and local
// fsync is the whole guarantee — it returns immediately.
func (h *haController) waitReplicated(ctx context.Context, last int64) error {
	deadline := time.NewTimer(h.ackTimeout)
	defer deadline.Stop()
	for {
		h.mu.Lock()
		if h.standbyDurable >= last {
			h.mu.Unlock()
			return nil
		}
		if h.standbySeen.IsZero() || time.Since(h.standbySeen) > 2*h.leaseTTL {
			h.mu.Unlock()
			return nil // no live follower: solo durability
		}
		if h.ackCh == nil {
			h.ackCh = make(chan struct{})
		}
		ch := h.ackCh
		h.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return fmt.Errorf("%w: standby ack not received within %v", serve.ErrIngestUnavailable, h.ackTimeout)
		case <-ctx.Done():
			return fmt.Errorf("%w: %v", serve.ErrIngestUnavailable, ctx.Err())
		}
	}
}

// noteFollower records a follower's tail poll: liveness for the ack policy
// and its durable watermark for waiters.
func (h *haController) noteFollower(node string, durable int64) {
	h.mu.Lock()
	h.standbySeen = time.Now()
	if durable > h.standbyDurable {
		h.standbyDurable = durable
		if h.ackCh != nil {
			close(h.ackCh)
			h.ackCh = nil
		}
	}
	h.mu.Unlock()
}

// shipLoop is the primary's replication pump: every tick it scans the store
// (discovering its own demotion, if any) and publishes newly sealed
// segments. On fencing it flips the role and stops — the log's epoch is
// already advanced, so in-flight appends fail from that instant.
func (h *haController) shipLoop(ctx context.Context) {
	t := time.NewTicker(haShipEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		h.mu.Lock()
		sh, role := h.shipper, h.role
		h.mu.Unlock()
		if role != haRolePrimary || sh == nil {
			return
		}
		if _, err := sh.Sync(); err != nil {
			if errors.Is(err, seglog.ErrFenced) {
				h.mu.Lock()
				h.role = haRoleFenced
				h.mu.Unlock()
				h.logf("ha: deposed: %v", err)
				return
			}
			h.logf("ha: ship: %v", err)
		}
	}
}

// followLoop is the standby's catch-up pump: adopt sealed segments from the
// store, tail the primary's open segment, renew the lease on every
// successful poll, and promote when the lease expires.
func (h *haController) followLoop(ctx context.Context) {
	peerDown := false
	for ctx.Err() == nil {
		if h.currentRole() != haRoleStandby {
			return
		}
		before := h.log.NextTID()
		if _, maxE, err := h.follower.Sync(); err != nil {
			h.logf("ha: store sync: %v", err)
		} else {
			h.observeEpoch(maxE)
		}
		if n := h.log.NextTID() - before; n > 0 {
			h.ingest.notePending(h.log.NextTID()-1, n)
		}
		// The long poll paces the loop: it returns quickly with data, after
		// haTailWait without, or with an error when the primary is gone.
		if err := h.pollTail(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			if !peerDown {
				peerDown = true
				h.logf("ha: tail poll failed (primary down?): %v", err)
			}
			time.Sleep(haShipEvery) // don't hot-loop against a dead peer
		} else {
			if peerDown {
				h.logf("ha: tail poll recovered")
			}
			peerDown = false
			h.lease.Renew()
		}
		if h.lease.Expired() {
			if err := h.promote(ctx, fmt.Sprintf("lease expired (%v since last primary contact)", h.lease.SinceRenewal().Round(time.Millisecond))); err != nil {
				h.logf("ha: promotion attempt: %v", err)
				time.Sleep(haShipEvery)
			}
		}
	}
}

func (h *haController) observeEpoch(e int64) {
	h.mu.Lock()
	if e > h.maxEpochSeen {
		h.maxEpochSeen = e
	}
	h.mu.Unlock()
}

// tailTxn is one transaction on the tail wire: item ids are stable across
// the pair because both nodes load the same taxonomy dictionary.
type tailTxn struct {
	TID   int64   `json:"tid"`
	Items []int32 `json:"items"`
}

// tailResponse is the GET /seglog/tail payload.
type tailResponse struct {
	Epoch        int64               `json:"epoch"`
	NextTID      int64               `json:"nextTid"`
	SealedMaxTID int64               `json:"sealedMaxTid"`
	SealedCount  int                 `json:"sealedSegments"`
	Txns         []tailTxn           `json:"txns,omitempty"`
	Dedup        []seglog.DedupEntry `json:"dedup,omitempty"`
	More         bool                `json:"more,omitempty"` // capped: poll again immediately
}

// pollTail performs one tail poll against the primary and applies what it
// returns.
func (h *haController) pollTail(ctx context.Context) error {
	after := h.log.NextTID() - 1
	u := fmt.Sprintf("%s/seglog/tail?after=%d&wait=%d&durable=%d&node=%s",
		h.peer, after, haTailWait.Milliseconds(), after, url.QueryEscape(h.node))
	rctx, cancel := context.WithTimeout(ctx, haTailWait+2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("primary answered HTTP %d", resp.StatusCode)
	}
	var doc tailResponse
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&doc); err != nil {
		return err
	}
	return h.applyTail(doc)
}

// applyTail replays one tail response: transactions are appended with their
// TIDs preserved, the log is sealed at the primary's seal boundary (so the
// standby's segmentation tracks the primary's and store-adopted segments
// keep lining up), and replicated dedup entries are installed once their
// data is durable.
func (h *haController) applyTail(doc tailResponse) error {
	next := h.log.NextTID()
	txs := make([]txdb.Transaction, 0, len(doc.Txns))
	for _, t := range doc.Txns {
		if t.TID < next {
			continue // already present (a store adoption raced this poll)
		}
		items := make(item.Itemset, len(t.Items))
		for i, id := range t.Items {
			items[i] = item.Item(id)
		}
		if err := items.Validate(); err != nil {
			return fmt.Errorf("ha: tail txn %d: %w", t.TID, err)
		}
		txs = append(txs, txdb.Transaction{TID: t.TID, Items: items})
	}
	applied := int64(0)
	if len(txs) > 0 {
		cut := len(txs)
		for i, tx := range txs {
			if tx.TID > doc.SealedMaxTID {
				cut = i
				break
			}
		}
		if cut > 0 {
			if _, err := h.log.AppendReplicated(txs[:cut]); err != nil {
				return err
			}
			applied += int64(cut)
			if h.log.NextTID() == doc.SealedMaxTID+1 {
				if err := h.log.Seal(); err != nil {
					return err
				}
			}
		}
		if cut < len(txs) {
			if _, err := h.log.AppendReplicated(txs[cut:]); err != nil {
				return err
			}
			applied += int64(len(txs) - cut)
		}
	}
	if err := h.log.AdoptDedup(doc.Dedup); err != nil {
		return err
	}
	h.observeEpoch(doc.Epoch)
	lag := doc.SealedCount - len(h.log.SealedEntries())
	if lag < 0 {
		lag = 0
	}
	h.mu.Lock()
	h.lag = lag
	h.mu.Unlock()
	if applied > 0 {
		h.ingest.notePending(h.log.NextTID()-1, applied)
	}
	return nil
}

// promote turns the standby into the primary: gate on the cluster.promote
// failpoint, drain the store one final time, durably bump the epoch past
// everything observed, announce it in the store (fencing the old primary),
// and start shipping.
func (h *haController) promote(ctx context.Context, reason string) error {
	if h.currentRole() != haRoleStandby {
		return nil
	}
	if err := fault.Hit(cluster.PointPromote); err != nil {
		return fmt.Errorf("promotion gated: %w", err)
	}
	// Final drain: adopt every sealed segment the old primary managed to
	// publish, so the new timeline starts from everything that could have
	// been acknowledged.
	if _, maxE, err := h.follower.Sync(); err != nil {
		h.logf("ha: final store drain: %v", err)
	} else {
		h.observeEpoch(maxE)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.role != haRoleStandby {
		return nil
	}
	newEpoch := h.maxEpochSeen
	if e := h.log.Epoch(); e > newEpoch {
		newEpoch = e
	}
	newEpoch++
	if err := h.log.AdvanceEpoch(newEpoch); err != nil {
		return err
	}
	if err := seglog.PublishEpoch(h.store, newEpoch, h.node); err != nil {
		return err
	}
	h.token = newEpoch
	h.maxEpochSeen = newEpoch
	h.role = haRolePrimary
	h.lag = 0
	h.shipper = &seglog.Shipper{Log: h.log, Store: h.store, Node: h.node, Epoch: newEpoch}
	go h.shipLoop(ctx)
	h.logf("ha: promoted to primary at epoch %d: %s", newEpoch, reason)
	return nil
}

// tailHandler serves GET /seglog/tail: the standby's long-poll feed of the
// open segment. Parameters: after (TID cursor, required), wait (long-poll
// hold in ms, 0..5000), node + durable (the follower's identity and durable
// watermark, feeding the primary's replication ack).
func (h *haController) tailHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			metrics.WriteError(w, http.StatusMethodNotAllowed, "use GET /seglog/tail?after=TID")
			return
		}
		q := r.URL.Query()
		after, err := strconv.ParseInt(q.Get("after"), 10, 64)
		if err != nil || after < 0 {
			metrics.WriteError(w, http.StatusBadRequest, "bad after %q", q.Get("after"))
			return
		}
		waitMs := 0
		if v := q.Get("wait"); v != "" {
			waitMs, err = strconv.Atoi(v)
			if err != nil || waitMs < 0 || waitMs > 5000 {
				metrics.WriteError(w, http.StatusBadRequest, "bad wait %q (want 0..5000 ms)", v)
				return
			}
		}
		if node := q.Get("node"); node != "" {
			durable, _ := strconv.ParseInt(q.Get("durable"), 10, 64)
			h.noteFollower(node, durable)
		}
		// Grab the notify channel BEFORE collecting: an append landing between
		// collect and select still wakes the poll.
		notify := h.log.AppendNotify()
		txns, more := h.collectTail(after)
		if len(txns) == 0 && waitMs > 0 {
			t := time.NewTimer(time.Duration(waitMs) * time.Millisecond)
			select {
			case <-notify:
			case <-t.C:
			case <-r.Context().Done():
			}
			t.Stop()
			txns, more = h.collectTail(after)
		}
		sealed := h.log.SealedEntries()
		var sealedMax int64
		for _, e := range sealed {
			if e.MaxTID > sealedMax {
				sealedMax = e.MaxTID
			}
		}
		metrics.WriteJSON(w, http.StatusOK, tailResponse{
			Epoch:        h.log.Epoch(),
			NextTID:      h.log.NextTID(),
			SealedMaxTID: sealedMax,
			SealedCount:  len(sealed),
			Txns:         txns,
			Dedup:        h.log.DedupEntriesAfter(after),
			More:         more,
		})
	})
}

// errTailFull stops a tail collection at the response cap.
var errTailFull = errors.New("tail response full")

func (h *haController) collectTail(after int64) ([]tailTxn, bool) {
	var out []tailTxn
	more := false
	err := h.log.ScanFrom(after, func(tx txdb.Transaction) error {
		if len(out) >= haTailCap {
			more = true
			return errTailFull
		}
		items := make([]int32, len(tx.Items))
		for i, it := range tx.Items {
			items[i] = int32(it)
		}
		out = append(out, tailTxn{TID: tx.TID, Items: items})
		return nil
	})
	if err != nil && !errors.Is(err, errTailFull) {
		h.logf("ha: tail scan: %v", err)
	}
	return out, more
}

// promoteHandler serves POST /ha/promote: the manual failover trigger
// (`nmtx promote`). A standby promotes immediately; a primary answers 200
// without doing anything; a fenced node answers 409.
func (h *haController) promoteHandler(ctx context.Context) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			metrics.WriteError(w, http.StatusMethodNotAllowed, "use POST /ha/promote")
			return
		}
		switch h.currentRole() {
		case haRolePrimary:
			metrics.WriteJSON(w, http.StatusOK, map[string]any{"status": "already-primary", "epoch": h.log.Epoch()})
			return
		case haRoleFenced:
			metrics.WriteError(w, http.StatusConflict, "node is fenced (a newer primary holds the log)")
			return
		}
		if err := h.promote(ctx, "manual trigger"); err != nil {
			metrics.WriteError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		if h.currentRole() != haRolePrimary {
			metrics.WriteError(w, http.StatusServiceUnavailable, "promotion did not complete")
			return
		}
		metrics.WriteJSON(w, http.StatusOK, map[string]any{"status": "promoted", "epoch": h.log.Epoch()})
	})
}
