//go:build !race

package export

// raceEnabled: see race_on_test.go.
const raceEnabled = false
