//go:build race

package export

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is handed, so allocation counts say nothing about reuse.
const raceEnabled = true
