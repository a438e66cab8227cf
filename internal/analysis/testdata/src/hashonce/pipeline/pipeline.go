// Package pipeline is the hashonce golden fixture for the batched hash
// contract: its synthetic import path ends in "pipeline", so the ingest
// layer's scope applies, and the []uint64 "hashes" parameter marks a
// function that receives the whole batch's precomputed hashes — exactly
// the shape the worker side of the SPSC rings consumes.
package pipeline

import "instameasure/internal/packet"

// ProcessBatchHashed receives index-aligned precomputed hashes: hashing a
// key again is the per-packet double-hash the batched seam exists to
// avoid.
func ProcessBatchHashed(pkts []packet.Packet, hashes []uint64) uint64 {
	var acc uint64
	for i := range pkts {
		acc ^= pkts[i].Key.Hash64(0) // want `pipeline\.ProcessBatchHashed re-hashes the flow key via \(FlowKey\)\.Hash64; the hash is already threaded in as "hashes"`
		acc ^= hashes[i]
	}
	return acc
}

// Ingest is the producer seam: no incoming hash parameter, so computing
// each packet's hash — exactly once — is its job, and hashing is legal.
func Ingest(pkts []packet.Packet, seed uint64) []uint64 {
	out := make([]uint64, len(pkts))
	for i := range pkts {
		out[i] = pkts[i].Key.Hash64(seed)
	}
	return out
}
