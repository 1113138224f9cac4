//go:build race

package calendar

// RaceEnabled: the race detector makes sync.Pool drop a share of what is
// put back, so a pooled buffer, reply channel or Tx is sometimes made
// anew. Exported for the external test package.
const RaceEnabled = true
