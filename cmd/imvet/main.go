// Command imvet runs instameasure's three domain-specific static
// analyzers — hotpath, errclose, locksafe — over the module and prints
// vet-style file:line:col: msg [analyzer] diagnostics to stderr, exiting
// non-zero if any invariant is violated.
//
// The analyzers are whole-program by design (hot-path annotations
// propagate through the cross-package call graph; lock scopes and lock
// order follow static calls across packages), so any package pattern
// argument analyzes the entire enclosing module:
//
//	go run ./cmd/imvet ./...
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"instameasure/internal/analysis"
)

func main() {
	for _, arg := range os.Args[1:] {
		if strings.HasPrefix(arg, "-") {
			fmt.Fprintf(os.Stderr, "imvet: takes no flags (got %s)\nusage: imvet [packages]\n", arg)
			os.Exit(2)
		}
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "imvet:", err)
		os.Exit(2)
	}
	prog, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imvet:", err)
		os.Exit(2)
	}

	diags := analysis.RunAnalyzers(prog, analysis.Suite()...)
	wd, _ := os.Getwd()
	for _, d := range diags {
		name := d.Pos.Filename
		if wd != "" {
			if rel, rerr := filepath.Rel(wd, name); rerr == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", name, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "imvet: %d invariant violation(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
