// Command imvet runs instameasure's five domain-specific static
// analyzers — hotalloc, errclose, wallclock, locksafe, wirebound — over
// the module and prints vet-style file:line:col diagnostics to stderr,
// exiting non-zero if any invariant is violated.
//
// The analyzers are whole-program by design (hot-path annotations
// propagate through the cross-package call graph; lock scopes and lock
// order follow static calls across packages), so any package pattern
// argument analyzes the entire enclosing module:
//
//	go run ./cmd/imvet ./...
//
// -json switches the diagnostic stream to NDJSON on stdout (one
// {"file","line","col","analyzer","message"} object per finding) for
// editor and CI integration; -v prints per-analyzer wall time and
// finding counts to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"instameasure/internal/analysis"
)

// jsonDiag is the NDJSON shape emitted under -json, one object per line.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as NDJSON on stdout instead of vet-style text on stderr")
	verbose := flag.Bool("v", false, "print per-analyzer wall time and finding counts to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: imvet [-list] [-json] [-v] [packages]\n\nruns the module's invariant analyzers; any package pattern analyzes the whole module\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
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

	diags, timings := analysis.RunAnalyzersTimed(prog, analysis.Suite()...)
	if *verbose {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "imvet: %-12s %8.1fms  %d finding(s)\n",
				tm.Name, float64(tm.Elapsed.Microseconds())/1000, tm.Count)
		}
	}
	wd, _ := os.Getwd()
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		name := d.Pos.Filename
		if wd != "" {
			if rel, rerr := filepath.Rel(wd, name); rerr == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		if *asJSON {
			if err := enc.Encode(jsonDiag{
				File: name, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "imvet:", err)
				os.Exit(2)
			}
			continue
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
