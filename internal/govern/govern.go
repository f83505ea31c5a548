// Package govern is the resource-governance layer: explicit budgets for the
// two resources that take the system down under load — concurrency on the
// serving side and memory on the mining side.
//
// The serving half is the admission Controller: at most MaxConcurrent
// requests run at once, at most MaxQueue more wait in FIFO order, and a
// waiter whose deadline passes first is shed. Every rejection is a typed
// *ShedError, so the HTTP layer can turn it into a well-formed 503 with a
// Retry-After header instead of an opaque failure. The limit is fixed: a
// window that adapts to observed latency learns from slow re-mines as much
// as from overload, and shrinks under reads that were never the problem.
//
// The mining half is the memory Budget: a process-wide byte ledger the
// allocation hot spots (bitmap rows, hash trees, the incremental index's
// posting lists) reserve against before allocating. A failed reservation is
// a signal to degrade — count over a narrower window of transactions —
// never a crash. The default budget comes from GOMEMLIMIT or the cgroup
// memory limit: the miner sizes its working set to the memory it actually
// has.
//
// Both halves follow the same philosophy as internal/fault, which the
// package integrates with: overload must be a first-class, reproducible
// test input. The failpoints below let the chaos suite drive every shed and
// fallback path on demand.
package govern

// Failpoints (see internal/fault). All are no-ops unless armed by a test or
// NEGMINE_FAULTS.
const (
	// PointQueueFull fires on every attempt to enqueue a request for
	// admission; an error action simulates a saturated queue and forces the
	// queue-full shed path regardless of actual occupancy.
	PointQueueFull = "govern.queue.full"

	// PointBudget fires on every memory-budget reservation; an error action
	// simulates budget exhaustion and must produce the documented
	// degradation (the bitmap engine halves its transaction window), or at
	// the 64-transaction floor an error wrapping ErrOverBudget — never a
	// crash.
	PointBudget = "govern.budget"

	// PointLimiterStall fires at the top of every admission attempt, before
	// the limiter is consulted; a sleep action models a stalled limiter
	// (lock convoy, scheduler delay) and an error action sheds the request
	// outright.
	PointLimiterStall = "govern.limiter.stall"
)
