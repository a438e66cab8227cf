//go:build !race

package store

// raceEnabled: see race_on_test.go.
const raceEnabled = false
