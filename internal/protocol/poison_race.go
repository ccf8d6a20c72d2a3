//go:build race

package protocol

// poisonFreed makes FreeMsg poison messages instead of reusing them.
const poisonFreed = true
