//go:build race

package protocol_test

// raceEnabled lets heap-bound tests skip: the race detector's shadow
// memory and its ~10x slowdown make their measurements meaningless.
const raceEnabled = true
