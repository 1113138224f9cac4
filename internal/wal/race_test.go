//go:build race

package wal

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// put back, so a recycled pending is sometimes made anew.
const raceEnabled = true
