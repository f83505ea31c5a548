//go:build !race

package negative

const raceEnabled = false
