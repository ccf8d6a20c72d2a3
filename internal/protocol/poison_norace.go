//go:build !race

package protocol

const poisonFreed = false
