package govern

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"

	"negmine/internal/fault"
)

// ErrOverBudget is the sentinel every failed reservation wraps, so callers
// can tell "degrade now" from a real error with errors.Is.
var ErrOverBudget = errors.New("govern: memory budget exceeded")

// Budget is a process-wide memory ledger. Allocation hot spots reserve bytes
// before allocating and release them when the allocation dies; a reservation
// that would push usage past the budget fails with ErrOverBudget instead of
// letting the process grow into swap or an OOM kill. A nil *Budget is valid
// everywhere and never rejects, so plumbing it through options costs callers
// nothing.
//
// The ledger tracks intent, not RSS: it bounds the large, predictable
// allocations (bitmap rows, hash trees, posting lists) that dominate mining
// memory, which is what keeps observed RSS under the limit in practice.
type Budget struct {
	total     int64 // 0 = unlimited (still keeps the ledger and failpoint)
	used      atomic.Int64
	highWater atomic.Int64
	denials   atomic.Int64
}

// NewBudget returns a ledger capped at total bytes. total ≤ 0 means
// unlimited: reservations are tracked (and the PointBudget failpoint still
// evaluated) but never rejected on size.
func NewBudget(total int64) *Budget {
	if total < 0 {
		total = 0
	}
	return &Budget{total: total}
}

// Reserve claims n bytes, failing with an error wrapping ErrOverBudget when
// the claim would exceed the budget (or when the PointBudget failpoint is
// armed). A nil receiver always succeeds.
func (b *Budget) Reserve(n int64) error {
	if b == nil {
		return nil
	}
	if err := fault.Hit(PointBudget); err != nil {
		b.denials.Add(1)
		return fmt.Errorf("%w: %w", ErrOverBudget, err)
	}
	if n <= 0 {
		return nil
	}
	for {
		cur := b.used.Load()
		next := cur + n
		if b.total > 0 && next > b.total {
			b.denials.Add(1)
			return fmt.Errorf("%w: %d in use + %d requested > %d total",
				ErrOverBudget, cur, n, b.total)
		}
		if b.used.CompareAndSwap(cur, next) {
			for {
				hw := b.highWater.Load()
				if next <= hw || b.highWater.CompareAndSwap(hw, next) {
					return nil
				}
			}
		}
	}
}

// Release returns n bytes to the budget. Releasing more than was reserved is
// a caller bug; the ledger clamps at zero rather than going negative.
func (b *Budget) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	if cur := b.used.Add(-n); cur < 0 {
		b.used.CompareAndSwap(cur, 0)
	}
}

// InUse returns the bytes currently reserved.
func (b *Budget) InUse() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// HighWater returns the maximum bytes ever simultaneously reserved — the
// number the acceptance test compares against Total.
func (b *Budget) HighWater() int64 {
	if b == nil {
		return 0
	}
	return b.highWater.Load()
}

// Denials returns how many reservations have been rejected.
func (b *Budget) Denials() int64 {
	if b == nil {
		return 0
	}
	return b.denials.Load()
}

// Total returns the budget cap (0 = unlimited).
func (b *Budget) Total() int64 {
	if b == nil {
		return 0
	}
	return b.total
}

// Available returns how many bytes a reservation could still claim
// (math.MaxInt64 when unlimited or the receiver is nil).
func (b *Budget) Available() int64 {
	if b == nil || b.total <= 0 {
		return math.MaxInt64
	}
	if avail := b.total - b.used.Load(); avail > 0 {
		return avail
	}
	return 0
}

// DetectLimit discovers the memory ceiling the process actually runs under:
// GOMEMLIMIT when one is set, else the cgroup memory limit (v2 then v1) on
// Linux. It returns 0 when no limit is discoverable, in which case callers
// should treat the budget as unlimited rather than guessing.
func DetectLimit() int64 {
	// debug.SetMemoryLimit(-1) reads the current limit without changing it;
	// math.MaxInt64 is the package's "no limit" sentinel.
	if lim := debug.SetMemoryLimit(-1); lim > 0 && lim < math.MaxInt64 {
		return lim
	}
	for _, path := range []string{
		"/sys/fs/cgroup/memory.max",                   // cgroup v2
		"/sys/fs/cgroup/memory/memory.limit_in_bytes", // cgroup v1
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		if s == "max" {
			continue
		}
		n, err := strconv.ParseInt(s, 10, 64)
		// cgroup v1 reports "no limit" as a huge page-rounded number; treat
		// anything ≥ 1 PiB as unlimited.
		if err == nil && n > 0 && n < 1<<50 {
			return n
		}
	}
	return 0
}

// DefaultBudget returns a budget sized to the detected process limit with a
// fraction of headroom left for the Go runtime, request handling and
// fragmentation: 80% of DetectLimit, or unlimited when no limit is
// discoverable.
func DefaultBudget() *Budget {
	lim := DetectLimit()
	if lim <= 0 {
		return NewBudget(0)
	}
	return NewBudget(lim / 5 * 4)
}

// ParseBytes converts a human byte-size flag value ("512MiB", "2GB", "1g",
// "1048576") into bytes. The units are case-insensitive; both IEC (KiB, MiB,
// GiB, TiB) and metric-looking suffixes (KB/K, MB/M, GB/G, TB/T) are read as
// powers of 1024 — operators setting memory limits invariably mean the
// binary unit.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("govern: empty byte size")
	}
	shift := 0
	suffixes := []struct {
		text  string
		shift int
	}{
		{"kib", 10}, {"mib", 20}, {"gib", 30}, {"tib", 40},
		{"kb", 10}, {"mb", 20}, {"gb", 30}, {"tb", 40},
		{"k", 10}, {"m", 20}, {"g", 30}, {"t", 40},
		{"b", 0},
	}
	for _, suf := range suffixes { // longest first, so "mib" wins over "b"
		if strings.HasSuffix(t, suf.text) && len(t) > len(suf.text) {
			t = strings.TrimSpace(strings.TrimSuffix(t, suf.text))
			shift = suf.shift
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("govern: bad byte size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("govern: negative byte size %q", s)
	}
	return int64(v * float64(int64(1)<<shift)), nil
}
