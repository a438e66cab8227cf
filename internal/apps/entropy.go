// Package apps holds the WSAF-consumer application the paper names
// (Section II) that is not a distinct count: flow-size entropy over a WSAF
// snapshot. SuperSpreader and DDoS-victim detection are distinct counts
// and run on internal/detect's StreamDetector.
package apps

import (
	"math"

	"instameasure/internal/wsaf"
)

// FlowSizeEntropy computes the Shannon entropy (bits) of the flow-size
// distribution held in a WSAF snapshot: H = −Σ (cᵢ/N)·log₂(cᵢ/N) over
// per-flow packet counts. Sudden entropy drops indicate traffic
// concentration (a DDoS victim or an elephant burst); rises indicate
// dispersion (scans). Returns 0 for empty input.
func FlowSizeEntropy(entries []wsaf.Entry) float64 {
	var total float64
	for i := range entries {
		total += entries[i].Pkts
	}
	if total <= 0 {
		return 0
	}
	var h float64
	for i := range entries {
		if entries[i].Pkts <= 0 {
			continue
		}
		p := entries[i].Pkts / total
		h -= p * math.Log2(p)
	}
	return h
}

// NormalizedFlowSizeEntropy scales FlowSizeEntropy into [0,1] by the
// maximum log₂(flows); 0 for fewer than two flows.
func NormalizedFlowSizeEntropy(entries []wsaf.Entry) float64 {
	if len(entries) < 2 {
		return 0
	}
	return FlowSizeEntropy(entries) / math.Log2(float64(len(entries)))
}
