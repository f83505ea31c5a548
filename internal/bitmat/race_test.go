//go:build race

package bitmat

// raceEnabled lets the allocation pins skip under the race detector, which
// allocates on its own account and makes sync.Pool drop items.
const raceEnabled = true
