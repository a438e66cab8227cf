// Package analysis is imvet's stdlib-only static-analysis framework: a
// module loader built on go/parser + go/types (no golang.org/x/tools) and
// a small analyzer API over a whole-program view.
//
// Unlike the x/tools analysis framework, analyzers here run once over the
// entire module (every package, with one merged types.Info), because the
// repo's invariants are cross-package by nature: the //im:hotpath
// annotation propagates through the static call graph from core into
// wsaf/flowreg/rcc/flowhash, and lock scopes and lock order follow static
// calls across store/export/fleet/telemetry.
//
// Two comment directives drive the suite:
//
//	//im:hotpath
//	    On a function's doc comment: the function (and everything it
//	    statically calls inside the module) must stay free of
//	    latency-hazard constructs (see hotpath); its allocations are
//	    witnessed by tests.
//
//	//im:allow <name>[,<name>...] — <reason>
//	    Suppresses the named analyzers' diagnostics on the directive's
//	    line (and, for a directive alone on its line, the line below).
//	    This is the approved-seam mechanism: every suppression is
//	    greppable and carries its justification in the source.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Package is one type-checked package of the program under analysis.
type Package struct {
	// Path is the package's import path. Testdata packages loaded by the
	// golden harness get synthetic paths (their directory under
	// testdata/src), so scope rules keyed on path suffixes apply to them
	// the same way they apply to real module packages.
	Path  string
	Files []*ast.File
	Types *types.Package
}

// Program is the whole-module view every analyzer runs over: all packages,
// one FileSet, and one merged types.Info (node maps never collide across
// packages, so sharing the maps is sound and lets analyzers resolve any
// node without knowing which package it came from).
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	Info *types.Info

	// allow[file][line] holds the analyzer names suppressed on that line
	// by //im:allow directives ("*" suppresses everything).
	allow map[string]map[int][]string

	// fnOnce guards the lazily-built function index shared by every
	// analyzer that walks the static call graph (hotpath, locksafe): the
	// program is loaded once, so the declaration index is built once too
	// instead of re-walked per analyzer.
	fnOnce  sync.Once
	fnDecls map[*types.Func]*ast.FuncDecl
	fnRoots []*types.Func
}

// buildFuncIndex walks every file once, indexing function declarations by
// their type object and collecting the //im:hotpath-annotated roots.
func (prog *Program) buildFuncIndex() {
	prog.fnDecls = make(map[*types.Func]*ast.FuncDecl)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := prog.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.fnDecls[fn] = fd
				if hotpathAnnotated(fd) {
					prog.fnRoots = append(prog.fnRoots, fn)
				}
			}
		}
	}
}

// FuncDecls returns the program-wide index of function declarations with
// bodies, keyed by their type objects. The index is built once and shared
// across analyzers; callers must not mutate it.
func (prog *Program) FuncDecls() map[*types.Func]*ast.FuncDecl {
	prog.fnOnce.Do(prog.buildFuncIndex)
	return prog.fnDecls
}

// HotpathRoots returns every //im:hotpath-annotated function, in file
// order. Shared like FuncDecls; callers must not mutate it.
func (prog *Program) HotpathRoots() []*types.Func {
	prog.fnOnce.Do(prog.buildFuncIndex)
	return prog.fnRoots
}

// Analyzer is one named check. Run inspects the program and reports
// findings through report; suppression and position resolution happen in
// the runner.
type Analyzer struct {
	Name string
	Run  func(prog *Program, report func(pos token.Pos, format string, args ...any))
}

// RunAnalyzers runs the given analyzers over prog, applies //im:allow
// suppressions, and returns the surviving diagnostics sorted by position.
func RunAnalyzers(prog *Program, analyzers ...*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		name := a.Name
		a.Run(prog, func(pos token.Pos, format string, args ...any) {
			p := prog.Fset.Position(pos)
			if prog.allowed(name, p) {
				return
			}
			out = append(out, Diagnostic{Pos: p, Analyzer: name, Message: fmt.Sprintf(format, args...)})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// allowed reports whether an //im:allow directive suppresses analyzer name
// at position p.
func (prog *Program) allowed(name string, p token.Position) bool {
	lines := prog.allow[p.Filename]
	for _, l := range [2]int{p.Line, p.Line - 1} {
		for _, n := range lines[l] {
			if n == name || n == "*" {
				return true
			}
		}
	}
	return false
}

// indexDirectives scans a parsed file for //im:allow directives and
// records them by line. A directive on a line of its own also covers the
// next line, so seams can be annotated above the statement they bless.
func (prog *Program) indexDirectives(file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			names, ok := parseAllow(c.Text)
			if !ok {
				continue
			}
			p := prog.Fset.Position(c.Pos())
			if prog.allow == nil {
				prog.allow = make(map[string]map[int][]string)
			}
			byLine := prog.allow[p.Filename]
			if byLine == nil {
				byLine = make(map[int][]string)
				prog.allow[p.Filename] = byLine
			}
			byLine[p.Line] = append(byLine[p.Line], names...)
		}
	}
}

// parseAllow extracts analyzer names from an //im:allow comment. The
// directive body runs to the first "—" or "--" (the conventional reason
// separator) and is split on commas and spaces.
func parseAllow(comment string) ([]string, bool) {
	text, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return nil, false
	}
	text = strings.TrimSpace(text)
	body, ok := strings.CutPrefix(text, "im:allow")
	if !ok {
		return nil, false
	}
	if body != "" && body[0] != ' ' && body[0] != '\t' {
		return nil, false
	}
	if i := strings.Index(body, "—"); i >= 0 {
		body = body[:i]
	}
	if i := strings.Index(body, "--"); i >= 0 {
		body = body[:i]
	}
	names := strings.FieldsFunc(body, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	return names, len(names) > 0
}

// hotpathAnnotated reports whether a function declaration carries the
// //im:hotpath annotation in its doc comment.
func hotpathAnnotated(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "im:hotpath" || strings.HasPrefix(text, "im:hotpath ") {
			return true
		}
	}
	return false
}

// inScope reports whether a package path belongs to one of the named
// scopes: the path's last element equals one of the names. Synthetic
// testdata paths ("errclose/store") land in scope the same way real module
// paths ("instameasure/internal/core") do.
func inScope(pkgPath string, names ...string) bool {
	last := pkgPath
	if i := strings.LastIndexByte(pkgPath, '/'); i >= 0 {
		last = pkgPath[i+1:]
	}
	for _, n := range names {
		if last == n {
			return true
		}
	}
	return false
}

// staticCallee resolves a call expression to the concrete *types.Func it
// invokes, or nil for dynamic calls (function values, interface methods
// resolve to their abstract method object, which callers filter by
// checking for a declaration body).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Fn).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// calleeIs reports whether fn is the named function of the package whose
// import path ends in pkgSuffix (e.g. calleeIs(fn, "time", "Now")).
func calleeIs(fn *types.Func, pkgSuffix string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if !inScope(fn.Pkg().Path(), pkgSuffix) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// fieldOf resolves a selector expression to the struct field it reads or
// writes, or nil for method values, package selectors, and the like.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// recvNamed returns the name of fn's receiver base type ("" for
// non-methods).
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
