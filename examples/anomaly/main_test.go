package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestRunReportsPlantedAttacks: the example must name exactly the planted
// scanner and the flood's victim, and nothing from the background.
func TestRunReportsPlantedAttacks(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var reported []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "  ") && strings.Contains(line, " — ~") {
			reported = append(reported, strings.Fields(line)[0])
		}
	}
	slices.Sort(reported)
	if want := []string{"198.51.100.1", "203.0.113.1"}; !slices.Equal(reported, want) {
		t.Errorf("reported %v, want %v; output:\n%s", reported, want, out.String())
	}
}
