package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Atomicfield enforces the telemetry subsystem's lock-free discipline:
//
//  1. Mixed access: a plain-typed struct field that is passed to a
//     sync/atomic function anywhere in the module must be accessed through
//     sync/atomic everywhere. A plain read racing an atomic write is a
//     data race go vet does not see (vet's atomic checker only catches
//     self-assignment of Add results). Composite-literal initialization is
//     exempt — the struct is not yet shared while it is being built.
//
//  2. 64-bit alignment: a plain int64/uint64 field used with 64-bit
//     atomics must sit at a 64-bit-aligned offset under 32-bit layout
//     rules (gc/386 aligns uint64 to 4 bytes; sync/atomic's contract
//     requires 8). The atomic.Int64/Uint64 wrapper types self-align since
//     Go 1.19 and are not flagged.
//
//  3. Cache-line cells: a struct that pads an atomic field with a blank
//     byte-array (the telemetry counter-shard pattern) must size to a
//     multiple of the 64-byte cache line under amd64 layout, or adjacent
//     shards false-share and the padding is a lie.
var Atomicfield = &Analyzer{
	Name: "atomicfield",
	Doc:  "forbid mixed atomic/plain field access, misaligned 64-bit atomic fields, and broken cache-line cell padding",
	Run:  runAtomicfield,
}

func runAtomicfield(prog *Program, report func(token.Pos, string, ...any)) {
	info := prog.Info

	// Pass 1: find every struct field whose address is passed to a
	// sync/atomic function. exempt marks the selector nodes inside those
	// calls so pass 2 does not flag the atomic accesses themselves.
	atomicFields := make(map[*types.Var]string) // field -> atomic func name seen
	atomic64 := make(map[*types.Var]bool)       // subset used with 64-bit ops
	exempt := make(map[*ast.SelectorExpr]bool)

	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := staticCallee(info, call)
				if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
					return true
				}
				name := callee.Name()
				if !atomicOpName(name) {
					return true
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					f := fieldOf(info, sel)
					if f == nil {
						continue
					}
					exempt[sel] = true
					atomicFields[f] = name
					if strings.HasSuffix(name, "64") {
						atomic64[f] = true
					}
				}
				return true
			})
		}
	}

	// Pass 2: any other selector access to those fields is a mixed
	// atomic/plain access.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || exempt[sel] {
					return true
				}
				f := fieldOf(info, sel)
				if f == nil {
					return true
				}
				if op, hot := atomicFields[f]; hot {
					report(sel.Pos(), "plain access to field %s, which is accessed with sync/atomic.%s elsewhere; mixed atomic/plain access is a data race",
						f.Name(), op)
				}
				return true
			})
		}
	}

	// Pass 3: layout checks over every module struct declaration.
	sizes386 := types.SizesFor("gc", "386")
	sizesAMD64 := types.SizesFor("gc", "amd64")
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				obj, ok := info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					return true
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					return true
				}
				// A generic struct has no layout until it is instantiated:
				// a field of type-parameter type has no size to offset by.
				if named, ok := obj.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					return true
				}
				checkStructLayout(obj, st, atomic64, sizes386, sizesAMD64, report)
				return true
			})
		}
	}
}

// checkStructLayout applies the alignment and cache-line checks to one
// struct type.
func checkStructLayout(obj *types.TypeName, st *types.Struct, atomic64 map[*types.Var]bool,
	sizes386, sizesAMD64 types.Sizes, report func(token.Pos, string, ...any)) {
	n := st.NumFields()
	if n == 0 {
		return
	}
	fields := make([]*types.Var, n)
	hasWrapperAtomic := false
	hasPad := false
	for i := 0; i < n; i++ {
		f := st.Field(i)
		fields[i] = f
		if isAtomicWrapper(f.Type()) {
			hasWrapperAtomic = true
		}
		if f.Name() == "_" && isByteArray(f.Type()) {
			hasPad = true
		}
	}

	// 64-bit alignment of plain atomic fields under 32-bit layout.
	offsets := sizes386.Offsetsof(fields)
	for i, f := range fields {
		if atomic64[f] && offsets[i]%8 != 0 {
			report(f.Pos(), "field %s is used with 64-bit sync/atomic ops but sits at offset %d under 32-bit layout; 64-bit atomics require 8-byte alignment — move it to the front of %s or pad before it",
				f.Name(), offsets[i], obj.Name())
		}
	}

	// Cache-line cell: atomic wrapper + blank byte-array padding means
	// the struct is a per-shard cell and must tile cache lines exactly.
	if hasWrapperAtomic && hasPad {
		if size := sizesAMD64.Sizeof(obj.Type()); size%64 != 0 {
			report(obj.Pos(), "padded atomic cell %s is %d bytes, not a multiple of the 64-byte cache line; adjacent shards will false-share",
				obj.Name(), size)
		}
	}
}

// atomicOpName reports whether name is a sync/atomic operation that takes
// an address (Add*, Load*, Store*, Swap*, CompareAndSwap*, And*, Or*).
func atomicOpName(name string) bool {
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
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

// isAtomicWrapper reports whether t is one of sync/atomic's typed wrappers
// (atomic.Uint64, atomic.Int64, ...).
func isAtomicWrapper(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// isByteArray reports whether t is [N]byte.
func isByteArray(t types.Type) bool {
	arr, ok := t.Underlying().(*types.Array)
	if !ok {
		return false
	}
	b, ok := arr.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}
