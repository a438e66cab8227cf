package instameasure

import "instameasure/internal/flowhash"

// RandomSeed draws a nonzero seed from the operating system's entropy
// source. New and NewCluster call it when Config.Seed is 0, so every run
// hashes under an unpredictable key: a fixed default seed would let an
// attacker who knows the hash algorithm craft a flood of flow keys that
// all land on one WSAF probe chain (and one hot-cache set), pinning the
// table at a handful of slots. See internal/trace.GenerateCollisionFlood
// for the attack this defeats.
//
// Callers wanting a reproducible run set Config.Seed explicitly (and can
// read back a randomly drawn one via Meter.Seed).
func RandomSeed() uint64 { return flowhash.RandomSeed() }
