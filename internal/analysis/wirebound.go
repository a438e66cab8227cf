package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// wireboundScopes names the decode-path packages held to the untrusted
// length discipline: the export codec, the store's frame reader, and the
// pcap parser — everything that turns attacker-controllable bytes into
// lengths and counts.
var wireboundScopes = []string{"export", "store", "pcap"}

// Wirebound enforces the PR 3 codec-hardening class forever: in decode
// paths, a length or count that originates from the wire must pass a
// bounds comparison before it reaches an allocation or an access.
//
// SOURCES (per function): results of encoding/binary Uint16/32/64 reads
// (package functions and ByteOrder interface methods alike), and bytes
// indexed out of a buffer previously filled by io.ReadFull/ReadAtLeast or
// an io.Reader Read in the same function.
//
// Taint propagates through assignment, arithmetic, and conversions, into
// locals and struct-field paths. It STOPS at any comparison mentioning
// the tainted value (the bounds check — the analyzer trusts the check's
// shape, not its constant), at min/max (which clamp), and at function
// results (a decode helper is responsible for its own inputs).
//
// SINKS: make() sizes and capacities, slices.Grow's element count,
// slice/array index expressions, slice bounds, and
// io.ReadFull/ReadAtLeast/CopyN arguments. A tainted value reaching a
// sink unchecked is exactly how IMB1's count field became a
// 2^32-record allocation before the codec capped it.
//
// The analysis is intraprocedural and scoped to internal/export,
// internal/store, and internal/pcap (plus same-named fixture packages).
// Deliberate seams carry //im:allow wirebound.
var Wirebound = &Analyzer{
	Name: "wirebound",
	Doc:  "require a bounds comparison between wire-derived lengths/counts and make/index/ReadFull sinks in decode paths",
	Run:  runWirebound,
}

func runWirebound(prog *Program, report func(token.Pos, string, ...any)) {
	for _, pkg := range prog.Pkgs {
		if !inScope(pkg.Path, wireboundScopes...) {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkWirebound(prog, fd.Body, report)
			}
		}
	}
}

// taintKey identifies a tainted value: a variable object, or a field path
// rooted at one ("h.count" → root h + path "count").
type taintKey struct {
	root types.Object
	path string
}

// taintState tracks where a key was tainted and (if ever) sanitized.
type taintState struct {
	taintPos token.Pos
	sanPos   token.Pos // 0 until a bounds comparison mentions the key
	expr     string    // rendered source of the key, for diagnostics
}

// wireEvent is one position-ordered fact in a function body.
type wireEvent struct {
	pos  token.Pos
	kind int // wireBuf, assign, sanitize, sink
	// wireBuf: obj is the buffer variable
	obj types.Object
	// assign: lhs key <- rhs expr
	lhs    taintKey
	lhsStr string
	rhs    ast.Expr
	// sanitize: exprs mentioned in a comparison
	exprs []ast.Expr
	// sink: the sink expression and a description
	sinkExprs []ast.Expr
	desc      string
}

const (
	evWireBuf = iota
	evAssign
	evSanitize
	evSink
)

func checkWirebound(prog *Program, body *ast.BlockStmt, report func(token.Pos, string, ...any)) {
	info := prog.Info
	var events []wireEvent

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Buffers filled from the wire: io.ReadFull(r, buf[:]) and
			// friends taint the buffer's bytes; their length args are sinks.
			if callee := staticCallee(info, n); callee != nil {
				name := callee.Name()
				pkgPath := ""
				if callee.Pkg() != nil {
					pkgPath = callee.Pkg().Path()
				}
				switch {
				case pkgPath == "io" && (name == "ReadFull" || name == "ReadAtLeast"):
					if len(n.Args) >= 2 {
						if obj := rootObj(info, n.Args[1]); obj != nil {
							events = append(events, wireEvent{pos: n.Pos(), kind: evWireBuf, obj: obj})
						}
					}
					events = append(events, wireEvent{pos: n.Pos(), kind: evSink, sinkExprs: n.Args[1:], desc: "io." + name})
				case pkgPath == "io" && name == "CopyN":
					events = append(events, wireEvent{pos: n.Pos(), kind: evSink, sinkExprs: n.Args, desc: "io.CopyN"})
				case pkgPath == "slices" && name == "Grow":
					// slices.Grow(s, n) allocates room for n more elements.
					events = append(events, wireEvent{pos: n.Pos(), kind: evSink, sinkExprs: n.Args[1:], desc: "slices.Grow"})
				case (pkgPath == "io" || pkgPath == "net" || pkgPath == "bufio") && name == "Read":
					// r.Read(buf): buf carries wire bytes afterwards.
					if len(n.Args) == 1 {
						if obj := rootObj(info, n.Args[0]); obj != nil {
							events = append(events, wireEvent{pos: n.Pos(), kind: evWireBuf, obj: obj})
						}
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if k, s, ok := keyOf(info, n.Lhs[i]); ok {
						events = append(events, wireEvent{pos: n.Pos(), kind: evAssign, lhs: k, lhsStr: s, rhs: n.Rhs[i]})
					}
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				events = append(events, wireEvent{pos: n.Pos(), kind: evSanitize, exprs: []ast.Expr{n.X, n.Y}})
			}
		case *ast.IndexExpr:
			if _, isMap := info.Types[n.X].Type.Underlying().(*types.Map); !isMap {
				events = append(events, wireEvent{pos: n.Pos(), kind: evSink, sinkExprs: []ast.Expr{n.Index}, desc: "index expression"})
			}
		case *ast.SliceExpr:
			var bounds []ast.Expr
			for _, b := range []ast.Expr{n.Low, n.High, n.Max} {
				if b != nil {
					bounds = append(bounds, b)
				}
			}
			if len(bounds) > 0 {
				events = append(events, wireEvent{pos: n.Pos(), kind: evSink, sinkExprs: bounds, desc: "slice bound"})
			}
		}
		// make(T, n, c): builtin, not resolved by staticCallee.
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(call.Args) > 1 {
					events = append(events, wireEvent{pos: call.Pos(), kind: evSink, sinkExprs: call.Args[1:], desc: "make"})
				}
			}
		}
		return true
	})
	if len(events) == 0 {
		return
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	taints := make(map[taintKey]*taintState)
	wireBufs := make(map[types.Object]token.Pos)
	sanitizedBufs := make(map[types.Object]bool)

	// tainted reports whether expr carries live (unsanitized) taint at pos.
	var tainted func(e ast.Expr, pos token.Pos) (string, bool)
	tainted = func(e ast.Expr, pos token.Pos) (string, bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if k, _, ok := keyOf(info, e.(ast.Expr)); ok {
				if t := taints[k]; t != nil && t.sanPos == 0 {
					return t.expr, true
				}
			}
			return "", false
		case *ast.BinaryExpr:
			if s, ok := tainted(e.X, pos); ok {
				return s, true
			}
			return tainted(e.Y, pos)
		case *ast.UnaryExpr:
			return tainted(e.X, pos)
		case *ast.IndexExpr:
			// buf[i] where buf was filled from the wire: a wire byte.
			if obj := rootObj(info, e.X); obj != nil {
				if p, ok := wireBufs[obj]; ok && p < pos && !sanitizedBufs[obj] {
					return types.ExprString(e), true
				}
			}
			return "", false
		case *ast.CallExpr:
			if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
				return tainted(e.Args[0], pos) // conversion passes taint through
			}
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "min", "max":
						return "", false // clamped
					case "len", "cap":
						return "", false
					}
				}
			}
			if callee := staticCallee(info, e); callee != nil && callee.Pkg() != nil &&
				callee.Pkg().Path() == "encoding/binary" {
				switch callee.Name() {
				case "Uint16", "Uint32", "Uint64":
					return types.ExprString(e), true
				}
			}
			return "", false
		}
		return "", false
	}

	// sanitizeMentioned clears taint on every key appearing inside e.
	var sanitizeMentioned func(e ast.Expr, pos token.Pos)
	sanitizeMentioned = func(e ast.Expr, pos token.Pos) {
		ast.Inspect(e, func(n ast.Node) bool {
			ne, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if k, _, ok := keyOf(info, ne); ok {
				if t := taints[k]; t != nil && t.sanPos == 0 {
					t.sanPos = pos
				}
			}
			// A comparison against a wire-buffer byte (buf[i] < limit)
			// vouches for that buffer's bytes from here on.
			if ix, ok := ne.(*ast.IndexExpr); ok {
				if obj := rootObj(info, ix.X); obj != nil {
					if _, isWire := wireBufs[obj]; isWire {
						sanitizedBufs[obj] = true
					}
				}
			}
			return true
		})
	}

	for _, ev := range events {
		switch ev.kind {
		case evWireBuf:
			wireBufs[ev.obj] = ev.pos
		case evSanitize:
			for _, e := range ev.exprs {
				sanitizeMentioned(e, ev.pos)
			}
		case evAssign:
			if src, ok := tainted(ev.rhs, ev.pos); ok {
				taints[ev.lhs] = &taintState{taintPos: ev.pos, expr: ev.lhsStr + " (from " + src + ")"}
			} else if t := taints[ev.lhs]; t != nil {
				delete(taints, ev.lhs) // overwritten with a clean value
			}
		case evSink:
			for _, e := range ev.sinkExprs {
				if src, ok := tainted(e, ev.pos); ok {
					report(ev.pos, "wire-derived length %s reaches %s without a bounds comparison — cap it against a protocol limit first (the PR 3 hardening class)",
						src, ev.desc)
					break
				}
			}
		}
	}
}

// keyOf resolves an lvalue-ish expression to a taint key: a bare variable
// or a field path rooted at one. Returns the rendered source too.
func keyOf(info *types.Info, e ast.Expr) (taintKey, string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return taintKey{root: v}, e.Name, true
		}
		if v, ok := info.Defs[e].(*types.Var); ok {
			return taintKey{root: v}, e.Name, true
		}
	case *ast.SelectorExpr:
		if f := fieldOf(info, e); f != nil {
			if root := rootObj(info, e.X); root != nil {
				return taintKey{root: root, path: pathOf(e)}, types.ExprString(e), true
			}
		}
	}
	return taintKey{}, "", false
}

// rootObj returns the variable at the base of an expression like
// h.payload[4:8] or &buf — the thing the bytes live in.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok {
				return v
			}
			if v, ok := info.Defs[x].(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pathOf renders the field chain of a selector ("count", "hdr.count").
func pathOf(e *ast.SelectorExpr) string {
	if inner, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
		return pathOf(inner) + "." + e.Sel.Name
	}
	return e.Sel.Name
}
