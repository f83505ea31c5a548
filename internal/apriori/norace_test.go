//go:build !race

package apriori

const raceEnabled = false
