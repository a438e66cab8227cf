package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Locksafe enforces the repo's lock-scope discipline — the PR 9 collector
// bug class, made a permanent gate. While a sync.Mutex/RWMutex is held, a
// function (or anything it statically calls) may not:
//
//   - call through a user-supplied function value (collector sinks/hooks,
//     OnAlert, telemetry callbacks): snapshot the callbacks under the
//     lock, release it, then invoke — a slow callback held under the lock
//     stalls every query sharing it
//   - perform blocking I/O: net.Conn / io.Reader / io.Writer interface
//     reads and writes, io.ReadFull/Copy helpers, (*os.File).Sync — a
//     stalled peer or disk must never wedge an in-memory query path
//   - send on a channel (a select with a default clause is non-blocking
//     and exempt) — a full channel stalls every path contending the lock
//
// Lock scopes are computed per function from Lock/Unlock pairs, deferred
// unlocks included, and hazards propagate through the static call graph:
// a call to a function that transitively reaches a hazard is flagged at
// the call site. Branches are merged conservatively (a lock counts as
// held after a branch only if every non-returning path kept it), so
// early-unlock-and-return error paths do not poison the fall-through.
//
// The analyzer also builds the cross-package lock-acquisition graph: an
// edge L1→L2 is recorded whenever L2 is acquired (directly or via a
// callee) while L1 is held, and any cycle in that graph — an ordering
// inversion that deadlocks under contention — is reported. Lock identity
// is the declared variable (one identity per struct field), so the graph
// spans store/export/fleet/telemetry the way the runtime locks do.
//
// Function literals are analyzed as independent functions (a closure's
// body runs with its own lock state, not its definition site's); calls
// THROUGH closure values are dynamic calls like any other. Approved seams
// — e.g. a dedicated wire-order lock whose only purpose is serializing
// sends — carry //im:allow locksafe with their justification.
//
// Lock-free state gets one rule: no package-level sync/atomic function
// (atomic.AddUint64(&s.f, 1) and kin) anywhere in the module.
var Locksafe = &Analyzer{
	Name: "locksafe",
	Run:  runLocksafe,
}

// lockHazard is one banned operation: where it is and what it does.
type lockHazard struct {
	pos  token.Pos
	desc string
}

// lockFacts is one function's local summary: the locks it acquires, its
// first local hazard, and its static module callees in source order.
type lockFacts struct {
	acquires []*types.Var
	hazard   *lockHazard
	callees  []*types.Func
}

// lockReach is the interprocedural closure of lockFacts: the hazard (if
// any) reachable from the function and the locks it transitively takes.
type lockReach struct {
	hazard *lockHazard
	via    *types.Func // callee the hazard is reached through (nil = local)
	locks  map[*types.Var]bool
}

// lockEdge is one lock-order edge: to was acquired while from was held.
type lockEdge struct {
	pos  token.Pos // acquisition (or call) site that created the edge
	from *types.Var
	to   *types.Var
}

func runLocksafe(prog *Program, report func(token.Pos, string, ...any)) {
	decls := prog.FuncDecls()
	owners := fieldOwners(prog)
	label := func(v *types.Var) string { return lockLabel(v, owners) }

	// Phase A: per-function local facts, declaration functions only —
	// function literals are handled in phase C (they cannot be called
	// statically, so they never contribute to interprocedural reach).
	facts := make(map[*types.Func]*lockFacts, len(decls))
	fns := make([]*types.Func, 0, len(decls))
	for fn, decl := range decls {
		facts[fn] = scanLockFacts(prog, decl.Body)
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	// Phase B: fixpoint over the static call graph. Hazards adopt the
	// first callee (in source order) that reaches one; lock sets union.
	reaches := make(map[*types.Func]*lockReach, len(facts))
	for _, fn := range fns {
		f := facts[fn]
		r := &lockReach{hazard: f.hazard, locks: make(map[*types.Var]bool, len(f.acquires))}
		for _, l := range f.acquires {
			r.locks[l] = true
		}
		reaches[fn] = r
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			r := reaches[fn]
			for _, callee := range facts[fn].callees {
				cr := reaches[callee]
				if cr == nil {
					continue
				}
				if r.hazard == nil && cr.hazard != nil {
					r.hazard, r.via = cr.hazard, callee
					changed = true
				}
				for l := range cr.locks {
					if !r.locks[l] {
						r.locks[l] = true
						changed = true
					}
				}
			}
		}
	}

	// Phase C: walk every function (and every function literal) with the
	// held-lock set, reporting hazards and harvesting lock-order edges.
	var edges []lockEdge
	addEdge := func(from, to *types.Var, pos token.Pos) {
		if from != to { // same-variable edges are instance ordering, not lock ordering
			edges = append(edges, lockEdge{pos: pos, from: from, to: to})
		}
	}
	for _, fn := range fns {
		w := &lockWalker{
			prog: prog, reaches: reaches, decls: decls, report: report,
			label: label, addEdge: addEdge,
			held: make(map[*types.Var]token.Pos),
		}
		w.stmts(decls[fn].Body.List)
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				w := &lockWalker{
					prog: prog, reaches: reaches, decls: decls, report: report,
					label: label, addEdge: addEdge,
					held: make(map[*types.Var]token.Pos),
				}
				w.stmts(lit.Body.List)
				return true // nested literals are walked independently too
			})
		}
	}

	reportLockCycles(edges, label, report)
	reportPlainAtomics(prog, report)
}

// reportPlainAtomics bans package-level sync/atomic functions. Every atomic
// in the module is a typed wrapper (atomic.Uint64, ...): mixed atomic and
// plain access to one is a compile error, and it self-aligns on 32-bit.
func reportPlainAtomics(prog *Program, report func(token.Pos, string, ...any)) {
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					fn := staticCallee(prog.Info, call)
					if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && recvNamed(fn) == "" {
						report(call.Pos(), "%s on a plain word — use a typed atomic so no access can be plain", funcLabel(fn))
					}
				}
				return true
			})
		}
	}
}

// scanLockFacts collects one body's local summary. Function literals are
// skipped (they run elsewhere, under their own lock state); hazards on
// //im:allow'd lines are blessed seams and do not propagate to callers.
func scanLockFacts(prog *Program, body *ast.BlockStmt) *lockFacts {
	f := &lockFacts{}
	info := prog.Info
	seenAcq := make(map[*types.Var]bool)
	noteHazard := func(pos token.Pos, desc string) {
		if f.hazard == nil && !prog.allowed("locksafe", prog.Fset.Position(pos)) {
			f.hazard = &lockHazard{pos: pos, desc: desc}
		}
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if send, ok := cc.Comm.(*ast.SendStmt); ok && !hasDefault {
					noteHazard(send.Pos(), "channel send")
				}
				for _, s := range cc.Body {
					ast.Inspect(s, walk)
				}
			}
			return false
		case *ast.SendStmt:
			noteHazard(n.Pos(), "channel send")
		case *ast.CallExpr:
			if v, op := lockOpOf(info, n); v != nil {
				if op == "acquire" && !seenAcq[v] {
					seenAcq[v] = true
					f.acquires = append(f.acquires, v)
				}
				return true
			}
			if desc, ok := callHazard(info, n); ok {
				noteHazard(n.Pos(), desc)
				return true
			}
			if callee := staticCallee(info, n); callee != nil {
				if _, inModule := prog.FuncDecls()[callee]; inModule {
					f.callees = append(f.callees, callee)
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return f
}

// callHazard classifies one call as a lock-scope hazard: a dynamic call
// through a function value, or blocking I/O.
func callHazard(info *types.Info, call *ast.CallExpr) (string, bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return "", false // conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return "", false
		}
	}
	callee := staticCallee(info, call)
	if callee == nil {
		return fmt.Sprintf("call through function value %s", types.ExprString(call.Fun)), true
	}
	if blockingIO(callee) {
		return fmt.Sprintf("blocking I/O (%s)", funcLabel(callee)), true
	}
	return "", false
}

// blockingIO reports whether fn is a read/write that can stall on a peer
// or a disk: io/net interface Read/Write (and the io helpers that wrap
// them) and the explicit durability point (*os.File).Sync. In-memory
// os.File byte writes are not listed — the WAL's write-under-lock is by
// design — but Sync is, because fsync latency is unbounded.
func blockingIO(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "io", "net":
		switch fn.Name() {
		case "Read", "Write", "ReadFrom", "WriteTo",
			"ReadFull", "ReadAll", "ReadAtLeast", "Copy", "CopyN", "CopyBuffer", "WriteString":
			return true
		}
	case "os":
		return fn.Name() == "Sync" && recvNamed(fn) == "File"
	}
	return false
}

// lockOpOf resolves a sync.Mutex/RWMutex Lock/Unlock-family call to the
// lock variable it operates on. op is "acquire", "release", or "".
func lockOpOf(info *types.Info, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	callee := staticCallee(info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return nil, ""
	}
	if r := recvNamed(callee); r != "Mutex" && r != "RWMutex" {
		return nil, ""
	}
	var op string
	switch callee.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = "acquire"
	case "Unlock", "RUnlock":
		op = "release"
	default:
		return nil, ""
	}
	if v := lockVarOf(info, sel.X); v != nil {
		return v, op
	}
	return nil, ""
}

// lockVarOf resolves the expression a Lock/Unlock method is called on to
// its declared variable — the program-wide lock identity.
func lockVarOf(info *types.Info, expr ast.Expr) *types.Var {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if f := fieldOf(info, x); f != nil {
			return f
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v // package-qualified var
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return lockVarOf(info, x.X)
		}
	}
	return nil
}

// lockWalker tracks the held-lock set through one function body in source
// order, flagging hazards under a lock and recording lock-order edges.
type lockWalker struct {
	prog    *Program
	reaches map[*types.Func]*lockReach
	decls   map[*types.Func]*ast.FuncDecl
	report  func(token.Pos, string, ...any)
	label   func(*types.Var) string
	addEdge func(from, to *types.Var, pos token.Pos)
	held    map[*types.Var]token.Pos
}

// heldAt renders the earliest-acquired held lock for a diagnostic.
func (w *lockWalker) heldAt() (string, int) {
	var lock *types.Var
	var at token.Pos
	for v, p := range w.held {
		if lock == nil || p < at {
			lock, at = v, p
		}
	}
	return w.label(lock), w.prog.Fset.Position(at).Line
}

// stmts walks a statement list; true means flow definitely terminated
// (return/branch/panic), so callers restore their pre-branch lock state.
func (w *lockWalker) stmts(list []ast.Stmt) bool {
	for _, s := range list {
		if w.stmt(s) {
			return true
		}
	}
	return false
}

func (w *lockWalker) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to the end of the function,
		// which is exactly what not processing the release models. Other
		// deferred calls run at return, outside this walk's lock timeline.
		return false
	case *ast.GoStmt:
		return false // the goroutine body runs under its own lock state
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		w.hazard(s.Pos(), "channel send")
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		entry := copyHeld(w.held)
		thenTerm := w.stmts(s.Body.List)
		thenHeld := w.held
		w.held = copyHeld(entry)
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else)
		}
		elseHeld := w.held
		switch {
		case thenTerm && elseTerm:
			w.held = entry
			return s.Else != nil
		case thenTerm:
			w.held = elseHeld
		case elseTerm:
			w.held = thenHeld
		default:
			w.held = intersectHeld(thenHeld, elseHeld)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		entry := copyHeld(w.held)
		w.stmts(s.Body.List)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.held = intersectHeld(entry, w.held)
	case *ast.RangeStmt:
		w.expr(s.X)
		entry := copyHeld(w.held)
		w.stmts(s.Body.List)
		w.held = intersectHeld(entry, w.held)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.branches(s)
	}
	return false
}

// branches merges switch/select clauses: a lock survives only if every
// non-terminating clause (and the no-match fall-through, absent a default
// clause) kept it. Select comm sends are hazards unless a default clause
// makes the select non-blocking.
func (w *lockWalker) branches(s ast.Stmt) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		clauses = s.Body.List
		for _, c := range clauses {
			if c.(*ast.CaseClause).List == nil {
				hasDefault = true
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		clauses = s.Body.List
		for _, c := range clauses {
			if c.(*ast.CaseClause).List == nil {
				hasDefault = true
			}
		}
	case *ast.SelectStmt:
		clauses = s.Body.List
		for _, c := range clauses {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
	}
	entry := copyHeld(w.held)
	var merged map[*types.Var]token.Pos
	if !hasDefault {
		merged = copyHeld(entry) // no match: fall through unchanged
	}
	for _, c := range clauses {
		w.held = copyHeld(entry)
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.expr(e)
			}
			body = c.Body
		case *ast.CommClause:
			switch comm := c.Comm.(type) {
			case *ast.SendStmt:
				w.expr(comm.Chan)
				w.expr(comm.Value)
				if !hasDefault {
					w.hazard(comm.Pos(), "channel send")
				}
			case *ast.ExprStmt:
				w.expr(comm.X)
			case *ast.AssignStmt:
				for _, e := range comm.Rhs {
					w.expr(e)
				}
			}
			body = c.Body
		}
		if !w.stmts(body) {
			if merged == nil {
				merged = copyHeld(w.held)
			} else {
				merged = intersectHeld(merged, w.held)
			}
		}
	}
	if merged == nil {
		merged = entry // every clause terminated
	}
	w.held = merged
}

// expr scans one expression for calls, in pre-order. Function literals
// are skipped: their bodies are walked as independent functions.
func (w *lockWalker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.call(call)
		}
		return true
	})
}

func (w *lockWalker) call(call *ast.CallExpr) {
	info := w.prog.Info
	if v, op := lockOpOf(info, call); v != nil {
		switch op {
		case "acquire":
			for h := range w.held {
				w.addEdge(h, v, call.Pos())
			}
			if _, ok := w.held[v]; !ok {
				w.held[v] = call.Pos()
			}
		case "release":
			delete(w.held, v)
		}
		return
	}
	if desc, ok := callHazard(info, call); ok {
		w.hazard(call.Pos(), desc)
		return
	}
	callee := staticCallee(info, call)
	if callee == nil {
		return
	}
	r := w.reaches[callee]
	if r == nil || len(w.held) == 0 {
		return
	}
	if r.hazard != nil {
		lock, line := w.heldAt()
		w.report(call.Pos(), "call to %s reaches %s%s while holding %s (held since line %d) — release the lock before the call, or //im:allow locksafe the seam with its justification",
			funcLabel(callee), r.hazard.desc, hazardPath(w.reaches, callee), lock, line)
	}
	for l2 := range r.locks {
		for h := range w.held {
			w.addEdge(h, l2, call.Pos())
		}
	}
}

// hazard reports one directly-banned operation if a lock is held.
func (w *lockWalker) hazard(pos token.Pos, desc string) {
	if len(w.held) == 0 {
		return
	}
	lock, line := w.heldAt()
	advice := "do the blocking work outside the critical section"
	if strings.HasPrefix(desc, "call through function value") {
		advice = "snapshot callbacks under the lock, release it, then invoke"
	}
	w.report(pos, "%s while holding %s (held since line %d) — %s", desc, lock, line, advice)
}

// hazardPath renders the callee chain from fn to its reachable hazard,
// e.g. " via (Handle).EventAt → (*ring).record".
func hazardPath(reaches map[*types.Func]*lockReach, fn *types.Func) string {
	var parts []string
	seen := make(map[*types.Func]bool)
	for cur := reaches[fn]; cur != nil && cur.via != nil && !seen[cur.via]; cur = reaches[cur.via] {
		seen[cur.via] = true
		parts = append(parts, funcLabel(cur.via))
	}
	if len(parts) == 0 {
		return ""
	}
	return " via " + strings.Join(parts, " → ")
}

func copyHeld(m map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	out := make(map[*types.Var]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func intersectHeld(a, b map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	out := make(map[*types.Var]token.Pos, len(a))
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

// fieldOwners maps every struct field object to its declaring type name,
// so lock diagnostics read "(Collector).mu" instead of a bare "mu".
func fieldOwners(prog *Program) map[*types.Var]string {
	owners := make(map[*types.Var]string)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				obj, ok := prog.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					return true
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i := 0; i < st.NumFields(); i++ {
					owners[st.Field(i)] = obj.Name()
				}
				return true
			})
		}
	}
	return owners
}

func lockLabel(v *types.Var, owners map[*types.Var]string) string {
	if v == nil {
		return "<unknown lock>"
	}
	if owner, ok := owners[v]; ok && v.IsField() {
		return fmt.Sprintf("(%s).%s", owner, v.Name())
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return fmt.Sprintf("%s.%s", v.Pkg().Name(), v.Name())
	}
	return v.Name()
}

// reportLockCycles finds cycles in the lock-acquisition graph and reports
// each once, at the lexically-first edge that closes it.
func reportLockCycles(edges []lockEdge, label func(*types.Var) string, report func(token.Pos, string, ...any)) {
	// Deduplicate edges, keeping the earliest position per (from, to).
	type key struct{ from, to *types.Var }
	first := make(map[key]token.Pos)
	adj := make(map[*types.Var][]*types.Var)
	for _, e := range edges {
		k := key{e.from, e.to}
		if p, ok := first[k]; !ok || e.pos < p {
			if !ok {
				adj[e.from] = append(adj[e.from], e.to)
			}
			first[k] = e.pos
		}
	}
	nodes := make([]*types.Var, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })
	for _, outs := range adj {
		sort.Slice(outs, func(i, j int) bool { return outs[i].Pos() < outs[j].Pos() })
	}

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*types.Var]int)
	var stack []*types.Var
	reported := make(map[string]bool)
	var visit func(n *types.Var)
	visit = func(n *types.Var) {
		color[n] = grey
		stack = append(stack, n)
		for _, m := range adj[n] {
			switch color[m] {
			case white:
				visit(m)
			case grey:
				// Back edge n→m closes a cycle: m ... n → m.
				i := 0
				for ; i < len(stack); i++ {
					if stack[i] == m {
						break
					}
				}
				names := make([]string, 0, len(stack)-i+1)
				for _, v := range stack[i:] {
					names = append(names, label(v))
				}
				names = append(names, label(m))
				chain := strings.Join(names, " → ")
				if !reported[chain] {
					reported[chain] = true
					report(first[key{n, m}], "lock-order cycle: %s — an ordering inversion that deadlocks under contention; acquire these locks in one global order", chain)
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
}
