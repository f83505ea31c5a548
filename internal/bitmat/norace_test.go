//go:build !race

package bitmat

const raceEnabled = false
