package serve

import (
	"context"
	"errors"
	"net/http"

	"negmine/internal/metrics"
)

// ErrIngestRejected marks a batch the sink refused for content reasons —
// an unknown item name, an empty basket. The handler maps it to 400; every
// other sink error is a server-side failure and maps to 500.
var ErrIngestRejected = errors.New("batch rejected")

// Write-path errors for high-availability ingest. The handler maps all
// three refusals to 409 Conflict (the request is well-formed; this node or
// this sequence number is just not allowed to apply it) and unavailability
// to 503 with a Retry-After hint.
var (
	// ErrIngestFenced marks an append refused because the node's fencing
	// epoch is stale: another node was promoted primary past it.
	ErrIngestFenced = errors.New("ingest fenced: a newer primary holds the log")
	// ErrIngestNotPrimary marks a write sent to a standby or replica.
	ErrIngestNotPrimary = errors.New("ingest refused: node is not the primary")
	// ErrIngestStale marks a keyed batch whose sequence number is at or
	// below the newest its key holds in the dedup window, and is not itself
	// retained there.
	ErrIngestStale = errors.New("ingest refused: stale sequence number")
	// ErrIngestUnavailable marks a write the primary could not make safe in
	// time (e.g. replication ack timeout); the client should retry.
	ErrIngestUnavailable = errors.New("ingest unavailable: retry later")
)

// IngestBatch is one write: a batch of named baskets plus an optional
// idempotency identity. When Key is set, (Key, Seq) must be unique per
// batch; retrying the same pair replays the original acknowledgment
// instead of appending twice. It is also the /ingest request body
// (DecodeIngest), its names those of the snapshot's dictionary.
type IngestBatch struct {
	Baskets [][]string `json:"baskets"`
	Key     string     `json:"key,omitempty"`
	Seq     uint64     `json:"seq,omitempty"`
}

// IngestResult reports what an accepted batch became: the transaction id
// range the log assigned (durable before the sink returns) and whether the
// sink decided the accumulated delta warrants a background re-mine.
type IngestResult struct {
	FirstTID  int64
	LastTID   int64
	Accepted  int
	Refreshed bool // a re-mine was triggered by this batch
	Duplicate bool // a keyed retry answered from the dedup window
}

// IngestStats is the ingest block of the /metrics document, filled by the
// configured IngestSink from its segment log and incremental miner.
type IngestStats struct {
	Segments     int   `json:"segments"`
	SealedTxns   int   `json:"sealedTxns"`
	SealedBytes  int64 `json:"sealedBytes"`
	ActiveTxns   int   `json:"activeTxns"`
	TxnsAppended int64 `json:"txnsAppended"`
	Seals        int64 `json:"seals"`
	Compactions  int64 `json:"compactions"`
	// PendingTxns counts transactions acknowledged but not yet reflected in
	// the served snapshot (appended since the last completed refresh).
	PendingTxns int64 `json:"pendingTxns"`
	// Refreshes counts completed incremental re-mines; the LastRefresh*
	// fields describe the most recent one.
	Refreshes              int64   `json:"refreshes"`
	LastRefreshSeconds     float64 `json:"lastRefreshSeconds,omitempty"`
	LastRefreshNewSegments int     `json:"lastRefreshNewSegments,omitempty"`
	LastRefreshOldScans    int     `json:"lastRefreshOldSegmentScans"`
	// LastRefresh accounts for that refresh stage by stage (absent until
	// one has completed).
	LastRefresh *RefreshBreakdown `json:"lastRefresh,omitempty"`
	// High-availability state. Role is primary | standby | fenced (empty on
	// non-HA daemons); the counters mirror the seglog's fencing and dedup
	// activity, and ReplLagSegments is the standby's sealed-segment lag.
	Role            string `json:"role,omitempty"`
	Epoch           int64  `json:"epoch,omitempty"`
	FencedAppends   int64  `json:"fencedAppends,omitempty"`
	DedupHits       int64  `json:"dedupHits,omitempty"`
	DedupEntries    int    `json:"dedupEntries,omitempty"`
	ReplLagSegments int    `json:"replLagSegments,omitempty"`
}

// RefreshBreakdown says where the last refresh's wall time went — the parts
// add up to IngestStats.LastRefreshSeconds — what its index held (IndexBytes
// is rows + pair table + gap lists, what must fit for it to exist; the
// carried counts are CountBytes beside it) and what its counting passes did:
// itemsets answered from the transactions new since the refresh before,
// itemsets counted over the whole log, the row words both read, the
// 2-itemsets read off the pair table, which read none, and the table cells
// promotions counted from rows (among the itemsets counted in full).
type RefreshBreakdown struct {
	SealSeconds        float64 `json:"sealSeconds"`
	IndexAppendSeconds float64 `json:"indexAppendSeconds"`
	Stage1Seconds      float64 `json:"stage1Seconds"`
	CandGenSeconds     float64 `json:"candgenSeconds"`
	CountSeconds       float64 `json:"countSeconds"`
	RuleGenSeconds     float64 `json:"rulegenSeconds"`
	IndexBytes         int64   `json:"indexBytes"`
	LargeItems         int     `json:"largeItems"`
	RowBytes           int64   `json:"rowBytes"`
	PairBytes          int64   `json:"pairBytes"`
	GapBytes           int64   `json:"gapBytes"`
	CountBytes         int64   `json:"countBytes"`
	RowsPromoted       int     `json:"rowsPromoted"`
	TailSets           int     `json:"tailSets"`
	FullSets           int     `json:"fullSets"`
	RowWords           int64   `json:"rowWords"`
	PairSets           int     `json:"pairSets"`
	PromotedPairs      int     `json:"promotedPairs"`
}

// IngestSink accepts batches of named baskets from POST /ingest. The serve
// layer owns only the HTTP contract; durability (append + fsync before
// return) and refresh scheduling live behind this interface — see
// cmd/negmined for the seglog+incr implementation.
type IngestSink interface {
	// Ingest appends the batch durably and returns the assigned TID range.
	// Content problems (unknown item name, empty basket) are reported with
	// an error wrapping ErrIngestRejected and nothing is appended; keyed
	// retries of an applied batch return the original result with
	// Duplicate set.
	Ingest(ctx context.Context, batch IngestBatch) (IngestResult, error)
	// Stats snapshots the sink's counters for /metrics.
	Stats() IngestStats
}

// WithIngest enables POST /ingest, backed by the given sink. Without this
// option the endpoint answers 404.
func WithIngest(sink IngestSink) Option {
	return func(s *Server) { s.ingest = sink }
}

// ingestResponse is the /ingest payload. The TID range is durable (fsync'd
// to the segment log) by the time the client reads it. A fresh append
// answers 202; a keyed retry replays the original range with 200 and
// duplicate set.
type ingestResponse struct {
	Accepted  int   `json:"accepted"`
	FirstTID  int64 `json:"firstTid"`
	LastTID   int64 `json:"lastTid"`
	Refreshed bool  `json:"refreshTriggered"`
	Duplicate bool  `json:"duplicate,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.ingest == nil {
		metrics.WriteError(w, http.StatusNotFound, "ingest is not enabled on this server")
		return
	}
	// The body is already bounded by instrument (http.MaxBytesReader).
	req, _, err := DecodeIngest(r)
	if err != nil {
		WriteRequestError(w, err)
		return
	}
	res, err := s.ingest.Ingest(r.Context(), req)
	if err != nil {
		switch {
		case errors.Is(err, ErrIngestRejected):
			metrics.WriteError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, ErrIngestFenced), errors.Is(err, ErrIngestNotPrimary), errors.Is(err, ErrIngestStale):
			metrics.WriteError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, ErrIngestUnavailable):
			w.Header().Set("Retry-After", "1")
			metrics.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			metrics.WriteError(w, http.StatusInternalServerError, "ingest failed: %v", err)
		}
		return
	}
	status := http.StatusAccepted
	if res.Duplicate {
		status = http.StatusOK
	}
	metrics.WriteJSON(w, status, ingestResponse{
		Accepted:  res.Accepted,
		FirstTID:  res.FirstTID,
		LastTID:   res.LastTID,
		Refreshed: res.Refreshed,
		Duplicate: res.Duplicate,
	})
}
