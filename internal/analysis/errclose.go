package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Errclose guards the durability and backoff contracts of the store and
// export packages: an I/O method whose error vanishes is how crash-safety
// silently dies (a Sync whose failure is dropped acknowledges an epoch
// that never reached disk; a SetReadDeadline whose failure is ignored
// leaves a connection without its slow-loris bound).
//
// In internal/store and internal/export, a call to one of
//
//	Write, WriteString, ReadAt, Sync, Close, Truncate,
//	SetReadDeadline, SetWriteDeadline, SetDeadline
//
// whose error result is implicitly discarded — a bare expression
// statement or a defer — is an error. Explicitly assigning the result to
// _ is accepted: it is a visible, reviewable decision rather than an
// accident. Methods on bytes.Buffer and strings.Builder are exempt (their
// errors are documented to always be nil).
var Errclose = &Analyzer{
	Name: "errclose",
	Run:  runErrclose,
}

// errcloseScopes are the package-path tails the analyzer applies to.
var errcloseScopes = []string{"store", "export"}

// errcloseMethods is the checked method-name set.
var errcloseMethods = map[string]bool{
	"Write": true, "WriteString": true, "ReadAt": true,
	"Sync": true, "Close": true, "Truncate": true,
	"SetReadDeadline": true, "SetWriteDeadline": true, "SetDeadline": true,
}

func runErrclose(prog *Program, report func(token.Pos, string, ...any)) {
	for _, pkg := range prog.Pkgs {
		if !inScope(pkg.Path, errcloseScopes...) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				var call *ast.CallExpr
				kind := "discarded"
				switch stmt := n.(type) {
				case *ast.ExprStmt:
					call, _ = ast.Unparen(stmt.X).(*ast.CallExpr)
				case *ast.DeferStmt:
					call = stmt.Call
					kind = "discarded (deferred)"
				default:
					return true
				}
				if call == nil {
					return true
				}
				callee := staticCallee(prog.Info, call)
				if !errcloseTarget(callee) {
					return true
				}
				report(call.Pos(), "%s error from %s; check it, or assign to _ to discard explicitly",
					kind, funcLabel(callee))
				return true
			})
		}
	}
}

// errcloseTarget reports whether callee is a checked method: named in the
// set, returns an error, is a method, and its receiver is not an exempt
// always-nil-error type.
func errcloseTarget(callee *types.Func) bool {
	if callee == nil || !errcloseMethods[callee.Name()] {
		return false
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if !returnsError(sig) {
		return false
	}
	switch recvNamed(callee) {
	case "Buffer", "Builder": // bytes.Buffer, strings.Builder
		if p := callee.Pkg(); p != nil && (p.Path() == "bytes" || p.Path() == "strings") {
			return false
		}
	}
	return true
}

// returnsError reports whether sig's last result is error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
