package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath enforces the bounded-latency contract of the measurement fast
// path. Functions annotated //im:hotpath — and every module function they
// statically call, transitively, closures included — may not contain:
//
//   - defer, go, select, channel operations (each costs a scheduler or
//     runtime interaction the per-packet budget cannot absorb)
//   - calls into fmt (formatting allocates and reflects)
//   - time.Now / time.Since (a wall-clock read is a latency hazard and a
//     determinism leak; sampled seams carry //im:allow hotpath)
//   - sync lock acquisition (Lock/RLock/Do/Wait): the shared-nothing
//     design's per-packet budget admits only sync/atomic — a mutex on the
//     hot path is a scalability regression even when uncontended
//
// Allocation is not checked here: every root has a test that runs it
// under testing.AllocsPerRun, which sees what escape analysis decides
// rather than the shapes that might allocate.
//
// Hot functions of the flight package (the Handle.Span record seam the
// engine calls on sampled bursts) are also held hash-free — no map index,
// range or delete, no calls into flowhash/maphash/hash/* or
// FlowKey.Hash64/Hash32 — since a record seam that hashes re-adds the
// per-packet cost the recorder exists to observe.
//
// Propagation stops at dynamic calls (function values, interface
// methods): those cannot be resolved statically and are the architectural
// boundary where the hot path hands off (e.g. the OnPass callback).
var Hotpath = &Analyzer{
	Name: "hotpath",
	Run:  runHotpath,
}

func runHotpath(prog *Program, report func(token.Pos, string, ...any)) {
	// The function-declaration index and annotated roots are built once on
	// the Program and shared with locksafe.
	decls := prog.FuncDecls()
	roots := prog.HotpathRoots()

	// Breadth-first propagation from the annotated roots through static
	// calls. via[fn] records the annotated root that made fn hot, for the
	// diagnostic message.
	via := make(map[*types.Func]*types.Func)
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if _, seen := via[r]; !seen {
			via[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		decl := decls[fn]
		checkHotBody(prog, fn, via[fn], decl, report)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(prog.Info, call)
			if callee == nil {
				return true
			}
			if _, inModule := decls[callee]; !inModule {
				return true
			}
			if _, seen := via[callee]; !seen {
				via[callee] = via[fn]
				queue = append(queue, callee)
			}
			return true
		})
	}
}

// checkHotBody reports every forbidden construct in one hot function.
func checkHotBody(prog *Program, fn, root *types.Func, decl *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	where := funcLabel(fn)
	if fn != root {
		where = fmt.Sprintf("%s (hot via %s)", where, funcLabel(root))
	}
	info := prog.Info
	flight := fn.Pkg() != nil && inScope(fn.Pkg().Path(), "flight")
	flag := func(n ast.Node, format string, args ...any) {
		report(n.Pos(), "hot path: "+format+" in %s", append(args, where)...)
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			flag(n, "defer")
		case *ast.GoStmt:
			flag(n, "goroutine launch")
		case *ast.SelectStmt:
			flag(n, "select")
			return false
		case *ast.SendStmt:
			flag(n, "channel send")
		case *ast.RangeStmt:
			if t, ok := info.Types[n.X]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Chan:
					flag(n, "range over channel")
				case *types.Map:
					if flight {
						flag(n, "range over map (runtime key hash)")
					}
				}
			}
		case *ast.IndexExpr:
			if t, ok := info.Types[n.X]; ok && flight {
				if _, isMap := t.Type.Underlying().(*types.Map); isMap {
					flag(n, "map access (runtime key hash)")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				flag(n, "channel receive")
			}
		case *ast.CallExpr:
			checkHotCall(info, n, flight, flag)
		}
		return true
	})
}

// checkHotCall classifies one call inside a hot function; flight adds the
// flight package's hash-free contract.
func checkHotCall(info *types.Info, call *ast.CallExpr, flight bool, flag func(ast.Node, string, ...any)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "delete" && flight {
				flag(call, "map delete (runtime key hash)")
			}
			return
		}
	}
	callee := staticCallee(info, call)
	if callee == nil {
		return
	}
	if calleeIs(callee, "fmt",
		"Sprintf", "Sprint", "Sprintln", "Errorf", "Printf", "Print", "Println",
		"Fprintf", "Fprint", "Fprintln", "Sscanf", "Sscan", "Appendf", "Append") {
		flag(call, "fmt call")
	}
	if calleeIs(callee, "time", "Now", "Since") {
		flag(call, "wall-clock read (time."+callee.Name()+")")
	}
	if callee.Pkg() != nil && callee.Pkg().Path() == "sync" && isLockAcquire(callee.Name()) {
		flag(call, "lock acquisition (%s)", funcLabel(callee))
	}
	if flight && isHashCall(callee) {
		flag(call, "hash call (%s)", funcLabel(callee))
	}
}

// isLockAcquire reports whether a sync-package method blocks or serializes:
// the hot path's only admissible synchronization is sync/atomic.
func isLockAcquire(name string) bool {
	switch name {
	case "Lock", "RLock", "Do", "Wait":
		return true
	}
	return false
}

// isHashCall reports whether fn hashes: a flowhash- or maphash-scoped
// function, a stdlib hash/* one, or FlowKey.Hash64/Hash32.
func isHashCall(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return inScope(path, "flowhash", "maphash") || path == "hash" || strings.HasPrefix(path, "hash/") ||
		((fn.Name() == "Hash64" || fn.Name() == "Hash32") && recvNamed(fn) == "FlowKey")
}

// funcLabel renders a function object for diagnostics: Pkg.Func or
// (Recv).Method without the full import path noise.
func funcLabel(fn *types.Func) string {
	if r := recvNamed(fn); r != "" {
		return fmt.Sprintf("(%s).%s", r, fn.Name())
	}
	if fn.Pkg() != nil {
		return fmt.Sprintf("%s.%s", fn.Pkg().Name(), fn.Name())
	}
	return fn.Name()
}
