package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hashonce enforces the single-hash-per-packet design: a function in the
// hash-threading packages (wsaf, flowreg, core, pipeline, hotcache) that receives a
// precomputed flow hash — a uint64 parameter named "h" or "hash", or a
// batch of them as a []uint64 parameter named "hashes" — must never hash
// the flow key again. Re-deriving the hash inside such a function is
// exactly the double-hash regression the batched hot path removed: the
// caller already paid for flowhash once and threads the value down, per
// packet or per batch, and across the pipeline's SPSC rings.
//
// Banned inside hash-taking functions (closures included):
//
//   - flowhash.Sum64 / Sum32 / SumFlowKey*
//   - packet.FlowKey.Hash64 / Hash32
var Hashonce = &Analyzer{
	Name: "hashonce",
	Doc:  "forbid re-hashing the flow key inside functions that already receive the precomputed hash",
	Run:  runHashonce,
}

// hashonceScopes are the package-path tails the analyzer applies to.
var hashonceScopes = []string{"wsaf", "flowreg", "core", "pipeline", "hotcache"}

func runHashonce(prog *Program, report func(token.Pos, string, ...any)) {
	for _, pkg := range prog.Pkgs {
		if !inScope(pkg.Path, hashonceScopes...) {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				hp := hashParam(prog.Info, fd)
				if hp == "" {
					continue
				}
				checkHashonceBody(prog, fd, hp, report)
			}
		}
	}
}

// hashParam returns the name of fd's precomputed-hash parameter — scalar
// ("h"/"hash" uint64) or batched ("hashes" []uint64) — or "".
func hashParam(info *types.Info, fd *ast.FuncDecl) string {
	for _, field := range fd.Type.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		scalar := isUint64(tv.Type)
		batch := false
		if s, ok := tv.Type.Underlying().(*types.Slice); ok {
			batch = isUint64(s.Elem())
		}
		for _, name := range field.Names {
			if scalar && (name.Name == "h" || name.Name == "hash") {
				return name.Name
			}
			if batch && name.Name == "hashes" {
				return name.Name
			}
		}
	}
	return ""
}

func isUint64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

func checkHashonceBody(prog *Program, fd *ast.FuncDecl, hp string, report func(token.Pos, string, ...any)) {
	fn, _ := prog.Info.Defs[fd.Name].(*types.Func)
	where := fd.Name.Name
	if fn != nil {
		where = funcLabel(fn)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(prog.Info, call)
		if callee == nil {
			return true
		}
		if rehashCall(callee) {
			report(call.Pos(), "%s re-hashes the flow key via %s; the hash is already threaded in as %q",
				where, funcLabel(callee), hp)
		}
		return true
	})
}

// rehashCall reports whether callee derives a flow hash from key material.
func rehashCall(callee *types.Func) bool {
	if callee.Pkg() != nil && inScope(callee.Pkg().Path(), "flowhash") {
		name := callee.Name()
		if name == "Sum64" || name == "Sum32" || len(name) >= len("SumFlowKey") && name[:len("SumFlowKey")] == "SumFlowKey" {
			return true
		}
	}
	if (callee.Name() == "Hash64" || callee.Name() == "Hash32") && recvNamed(callee) == "FlowKey" {
		return true
	}
	return false
}
