//go:build !race

package protocol_test

const raceEnabled = false
