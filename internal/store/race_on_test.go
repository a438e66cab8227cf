//go:build race

package store

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is handed, so allocation counts say nothing about reuse.
const raceEnabled = true
