// Package flowhash is a stand-in for the real flow hasher: hotpath bans
// calls into any flowhash-scoped package from the flight record path,
// keyed on the package path's last element exactly like the real module's
// package.
package flowhash

// Sum64 mixes v; the fixture only needs the call site, not the quality.
func Sum64(v uint64) uint64 { return v * 0x9E3779B97F4A7C15 }
