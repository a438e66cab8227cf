package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// The loader typechecks the module with nothing but the standard library:
//
//   - `go list -deps -export -json ./...` enumerates the module's packages
//     and compiles export data for every dependency into the build cache
//     (Go 1.20+ ships no pre-compiled stdlib, so this is the only
//     stdlib-only way to obtain dependency type information).
//   - Module packages are parsed and type-checked from source, so analyzers
//     see their ASTs with full type info and share types.Object identity
//     across packages (the in-module importer returns the source-checked
//     package, not a second copy from export data).
//   - Everything outside the module (the standard library) is imported
//     from the export data via go/importer's gc importer with a lookup
//     function into the build cache files.

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// moduleIndex is the result of one `go list` run: where every module
// package's sources live and where every dependency's export data is.
type moduleIndex struct {
	modPath string
	exports map[string]string   // import path -> export data file
	sources map[string][]string // module import path -> source files
	order   []string            // module import paths, go list order
}

// indexModule runs go list over the module rooted at moduleDir. Results
// are cached per directory: the golden tests and the self-gate test share
// one (comparatively expensive) go list invocation per process.
var (
	indexMu    sync.Mutex
	indexCache = map[string]*moduleIndex{}
)

func indexModule(moduleDir string) (*moduleIndex, error) {
	indexMu.Lock()
	defer indexMu.Unlock()
	if idx, ok := indexCache[moduleDir]; ok {
		return idx, nil
	}

	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,Name,Export,GoFiles,Standard,Module,Error", "./...")
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	idx := &moduleIndex{
		exports: make(map[string]string),
		sources: make(map[string][]string),
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if derr := dec.Decode(&p); derr == io.EOF {
			break
		} else if derr != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %w", derr)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			idx.exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil {
			if idx.modPath == "" {
				idx.modPath = p.Module.Path
			}
			files := make([]string, len(p.GoFiles))
			for i, f := range p.GoFiles {
				files[i] = filepath.Join(p.Dir, f)
			}
			idx.sources[p.ImportPath] = files
			idx.order = append(idx.order, p.ImportPath)
		}
	}
	indexCache[moduleDir] = idx
	return idx, nil
}

// newInfo allocates the merged type-info maps shared by every package.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// checker typechecks packages from source, resolving in-module imports
// recursively (shared object identity) and everything else from the build
// cache's export data.
type checker struct {
	fset    *token.FileSet
	idx     *moduleIndex
	gc      types.ImporterFrom
	info    *types.Info
	checked map[string]*Package
	loading map[string]bool
	order   []*Package
}

func newChecker(idx *moduleIndex) *checker {
	c := &checker{
		fset:    token.NewFileSet(),
		idx:     idx,
		info:    newInfo(),
		checked: make(map[string]*Package),
		loading: make(map[string]bool),
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := idx.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in the module's dependency closure)", path)
		}
		return os.Open(f)
	}
	c.gc = importer.ForCompiler(c.fset, "gc", lookup).(types.ImporterFrom)
	return c
}

func (c *checker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *checker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := c.checked[path]; ok {
		return p.Types, nil
	}
	if files, ok := c.idx.sources[path]; ok {
		p, err := c.checkSource(path, files)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return c.gc.ImportFrom(path, dir, mode)
}

// checkSource parses and typechecks one package from its source files.
// Idempotent: a package already checked (e.g. as another package's import)
// is returned as-is.
func (c *checker) checkSource(path string, files []string) (*Package, error) {
	if p, ok := c.checked[path]; ok {
		return p, nil
	}
	if c.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	c.loading[path] = true
	defer delete(c.loading, path)

	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(c.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		parsed = append(parsed, af)
	}
	conf := types.Config{
		Importer: c,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, c.fset, parsed, c.info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	p := &Package{Path: path, Files: parsed, Types: tpkg}
	c.checked[path] = p
	c.order = append(c.order, p)
	return p, nil
}

// program assembles the checked packages into a Program and indexes
// //im:allow directives.
func (c *checker) program() *Program {
	prog := &Program{Fset: c.fset, Pkgs: c.order, Info: c.info}
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			prog.indexDirectives(f)
		}
	}
	return prog
}

// Load typechecks every package of the module rooted at moduleDir and
// returns the whole-program view the analyzers run over. Test files are
// excluded: the invariants are production contracts (tests legitimately
// use wall clocks, defers, and discarded Closes).
func Load(moduleDir string) (*Program, error) {
	idx, err := indexModule(moduleDir)
	if err != nil {
		return nil, err
	}
	c := newChecker(idx)
	for _, path := range idx.order {
		if _, err := c.checkSource(path, idx.sources[path]); err != nil {
			return nil, err
		}
	}
	return c.program(), nil
}

// LoadDirs typechecks standalone package directories (the golden-test
// fixtures under testdata/src) against the module rooted at moduleDir.
// Each directory becomes one package whose synthetic import path is its
// path relative to base — so a fixture at testdata/src/errclose/store gets
// the path "errclose/store" and lands in the same scopes as the real store
// package. Fixtures may import module packages (resolved from source) and
// any standard-library package in the module's dependency closure.
func LoadDirs(moduleDir, base string, dirs []string) (*Program, error) {
	idx, err := indexModule(moduleDir)
	if err != nil {
		return nil, err
	}
	c := newChecker(idx)
	for _, dir := range dirs {
		rel, err := filepath.Rel(base, dir)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		path := filepath.ToSlash(rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		var files []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		if _, err := c.checkSource(path, files); err != nil {
			return nil, err
		}
	}
	return c.program(), nil
}
