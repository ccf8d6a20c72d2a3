//go:build race

package exec

// raceEnabled lets allocation-count tests skip: the race detector
// allocates on its own account.
const raceEnabled = true
