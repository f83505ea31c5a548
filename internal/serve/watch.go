package serve

import (
	"context"
	"os"
	"time"
)

// watch states, exported via /metrics.
const (
	watchWatching = "watching" // the version last tried loaded; polling for change
	watchSettling = "settling" // a new version appeared but is still changing
	watchFailed   = "failed"   // the version last tried failed; waiting for a new one
	watchMissing  = "missing"  // the watched file does not exist
)

// statKey identifies one version of the watched file. Size+mtime is the
// cheap fingerprint rename-based writers always change.
type statKey struct {
	size  int64
	mtime time.Time
}

func statOf(path string) (statKey, bool) {
	fi, err := os.Stat(path)
	if err != nil {
		return statKey{}, false
	}
	return statKey{size: fi.Size(), mtime: fi.ModTime()}, true
}

// WatchWith polls path every interval (which must be positive) and reloads
// the server once per new version of the file: a version is tried when it
// reads the same size+mtime on two polls in a row (so a file still being
// written in place is never loaded half-done) and differs from the version
// last tried. A version that fails to load is not retried until the file
// changes again; POST /reload is the manual retry. A missing file is a
// state, logged once when it goes and once when it comes back. The previous
// snapshot keeps serving throughout, and the state is exported through
// /metrics. WatchWith blocks until ctx is cancelled.
func (s *Server) WatchWith(ctx context.Context, path string, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	s.watch(ctx, path, t.C)
}

// watch is WatchWith's loop, polling once per tick. It publishes its state
// once per poll, after acting on it.
func (s *Server) watch(ctx context.Context, path string, ticks <-chan time.Time) {
	tried, ok := statOf(path) // at start, the version the snapshot came from
	last := tried             // what the previous poll saw
	result := watchWatching   // how the version last tried loaded
	state := result
	if !ok {
		state = watchMissing
		s.logf("watch: %s does not exist yet; waiting for it", path)
	}
	for {
		s.metrics.setWatch(state)
		select {
		case <-ctx.Done():
			return
		case <-ticks:
		}
		cur, ok := statOf(path)
		if ok && state == watchMissing {
			s.logf("watch: %s is back", path)
		}
		switch {
		case !ok:
			if state != watchMissing {
				s.logf("watch: %s disappeared; keeping current snapshot", path)
			}
			state = watchMissing
		case cur == tried:
			state = result
		case cur != last:
			state = watchSettling
		default:
			s.logf("watch: %s changed, reloading", path)
			tried, result = cur, watchWatching
			if s.Reload(ctx) != nil {
				result = watchFailed
			}
			state = result
		}
		last = cur
	}
}
