package analysis

import "testing"

// TestModuleClean is the imvet self-gate: the full analyzer suite must be
// diagnostic-free over the whole module. This is the test (alongside
// `make lint`) that fails if an //im:hotpath function grows an
// allocation, a store/export error check is dropped, a wall-clock read
// sneaks into a deterministic package, a callback or blocking write moves
// back under a lock (the collector's callback-under-lock bug class), a
// package-level sync/atomic call replaces a typed atomic, or a
// wire-derived length reaches an allocation unchecked.
func TestModuleClean(t *testing.T) {
	prog, err := Load(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAnalyzers(prog, Suite()...) {
		t.Errorf("%s", d)
	}
}
