package memmodel

import (
	"math"
	"testing"
)

func TestTierString(t *testing.T) {
	if TierTCAM.String() != "TCAM" || TierSRAM.String() != "SRAM" ||
		TierDRAM.String() != "DRAM" || Tier(99).String() != "unknown" {
		t.Error("tier names wrong")
	}
}

func TestDefaultModelBand(t *testing.T) {
	m := Default()
	ratio := m.DRAMAccessNs / m.SRAMAccessNs
	if ratio < 10 || ratio > 20 {
		t.Errorf("DRAM/SRAM ratio %.1f outside the paper's 10–20× band", ratio)
	}
	if m.TCAMAccessNs >= m.SRAMAccessNs {
		t.Error("TCAM must be faster than SRAM")
	}
}

func TestSpeedMargin(t *testing.T) {
	m := Default()
	margin := m.SpeedMargin(TierSRAM, TierDRAM)
	// Paper: SRAM's speed margin over DRAM is 5–10%.
	if margin < 0.05 || margin > 0.10 {
		t.Errorf("SRAM→DRAM margin %.3f outside [0.05, 0.10]", margin)
	}
	// Charging the probe+write pair halves the budget.
	m.WSAFAccessesPerOp = 2
	if got := m.SpeedMargin(TierDRAM, TierDRAM); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("2-access same-tier margin = %v, want 0.5", got)
	}
}

func TestSpeedMarginZeroOpsDefaults(t *testing.T) {
	m := Default()
	m.WSAFAccessesPerOp = 0
	if m.SpeedMargin(TierDRAM, TierDRAM) != 1.0 {
		t.Error("zero WSAFAccessesPerOp must default to 1")
	}
}
