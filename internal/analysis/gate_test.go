package analysis

import "testing"

// TestModuleClean is the imvet self-gate: the full analyzer suite must be
// diagnostic-free over the whole module. This is the test (alongside
// `make lint`) that fails if an //im:hotpath function grows a defer, a
// channel operation, a lock, a clock read or a fmt call (hotpath), a
// store/export Write/Sync/Close error is dropped (errclose), or a callback
// or blocking write moves back under a lock, a lock-order cycle appears,
// or a package-level sync/atomic call replaces a typed atomic (locksafe).
func TestModuleClean(t *testing.T) {
	prog, err := Load(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAnalyzers(prog, Suite()...) {
		t.Errorf("%s", d)
	}
}
