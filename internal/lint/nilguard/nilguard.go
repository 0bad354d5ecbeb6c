// Package nilguard enforces the trace layer's zero-overhead contract: a
// nil *trace.Sink (or *trace.Track) is the disabled tracer, so every
// exported pointer-receiver method on those types must begin with the
// `if s == nil { return ... }` fast path. A method that touches a field
// before that guard panics the instant someone runs with tracing off —
// the exact configuration the golden figure runs use.
//
// Checked types are Sink and Track in any package whose import path ends
// in internal/trace, plus any type whose declaration carries a
// `//lint:sink` marker in its doc comment (the hook for registering future
// sink-like types).
//
// Accepted method shapes:
//
//   - first statement `if s == nil { ... return }` (the condition may be
//     an || chain containing s == nil, as in `if t == nil || end <= start`);
//   - a single-return body that never reads a field of the receiver
//     (e.g. `func (s *Sink) Enabled() bool { return s != nil }` — method
//     calls are fine, nil-safe by this same contract; field reads are not).
package nilguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"igosim/internal/lint/analysis"
)

// Analyzer is the nilguard check.
var Analyzer = &analysis.Analyzer{
	Name: "nilguard",
	Doc: "exported pointer-receiver methods on trace.Sink/Track (and //lint:sink types) " +
		"must start with the `if s == nil` fast-path return",
	Run: run,
}

func run(pass *analysis.Pass) error {
	targets := targetTypes(pass)
	if len(targets) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 || !fn.Name.IsExported() {
				continue
			}
			recvType, recvName := receiver(fn)
			if recvType == "" || !targets[recvType] {
				continue
			}
			if recvName == "" {
				pass.Reportf(fn.Pos(), "exported method %s.%s discards its receiver and cannot implement the nil fast path; name the receiver and guard it", recvType, fn.Name.Name)
				continue
			}
			if fn.Body == nil || guarded(pass, fn, recvName) {
				continue
			}
			pass.Reportf(fn.Pos(), "exported method (*%s).%s must begin with the `if %s == nil` fast-path return (zero-overhead-when-disabled contract)", recvType, fn.Name.Name, recvName)
		}
	}
	return nil
}

// targetTypes returns the type names whose methods must be nil-guarded.
func targetTypes(pass *analysis.Pass) map[string]bool {
	targets := make(map[string]bool)
	path := pass.Pkg.Path()
	if path == "internal/trace" || strings.HasSuffix(path, "/internal/trace") {
		targets["Sink"] = true
		targets["Track"] = true
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, doc := range [2]*ast.CommentGroup{gd.Doc, ts.Doc} {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						if strings.Contains(c.Text, "lint:sink") {
							targets[ts.Name.Name] = true
						}
					}
				}
			}
		}
	}
	return targets
}

// receiver extracts the pointer receiver's base type name and binding name
// ("" for value receivers, which a nil pointer can never reach).
func receiver(fn *ast.FuncDecl) (typeName, recvName string) {
	field := fn.Recv.List[0]
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return "", ""
	}
	base := star.X
	if idx, ok := base.(*ast.IndexExpr); ok { // generic receiver
		base = idx.X
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if len(field.Names) == 1 && field.Names[0].Name != "_" {
		return id.Name, field.Names[0].Name
	}
	return id.Name, ""
}

// guarded reports whether the method body starts with the nil fast path or
// is a single return that never reads a receiver field.
func guarded(pass *analysis.Pass, fn *ast.FuncDecl, recvName string) bool {
	body := fn.Body.List
	if len(body) == 0 {
		return true // nothing to do is nil-safe
	}
	if ifs, ok := body[0].(*ast.IfStmt); ok && ifs.Init == nil {
		if condHasNilCheck(ifs.Cond, recvName) && endsInReturn(ifs.Body) {
			return true
		}
	}
	if len(body) == 1 {
		if ret, ok := body[0].(*ast.ReturnStmt); ok && !readsField(pass, ret, recvName) {
			return true
		}
	}
	return false
}

// condHasNilCheck reports whether cond contains `recv == nil` as an ||
// operand (checked first, so it still short-circuits for nil receivers).
func condHasNilCheck(cond ast.Expr, recvName string) bool {
	cond = ast.Unparen(cond)
	if bin, ok := cond.(*ast.BinaryExpr); ok {
		switch bin.Op {
		case token.LOR:
			return condHasNilCheck(bin.X, recvName) || condHasNilCheck(bin.Y, recvName)
		case token.EQL:
			return isIdent(bin.X, recvName) && isNil(bin.Y) || isNil(bin.X) && isIdent(bin.Y, recvName)
		}
	}
	return false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// endsInReturn reports whether the block's last statement is a return.
func endsInReturn(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	_, ok := block.List[len(block.List)-1].(*ast.ReturnStmt)
	return ok
}

// readsField reports whether n selects a struct field of the receiver —
// the dereference that panics on a nil pointer. Method selections are
// allowed: they dispatch without dereferencing.
func readsField(pass *analysis.Pass, n ast.Node, recvName string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		sel, ok := m.(*ast.SelectorExpr)
		if !ok || !isIdent(sel.X, recvName) {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			found = true
			return false
		}
		return true
	})
	return found
}
