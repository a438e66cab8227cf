//go:build !race

package instameasure

// raceEnabled: see race_on_test.go.
const raceEnabled = false
