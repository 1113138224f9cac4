//go:build race

package store

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// put back, so a pooled buffer or reply channel is sometimes made anew.
const raceEnabled = true
