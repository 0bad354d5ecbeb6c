// Package detmap flags `range` loops over maps whose bodies have
// order-dependent effects: printing/formatting (including fmt.Errorf — the
// chosen error then depends on iteration order), assigning the iteration
// key or value to a variable declared outside the loop (the element the
// map yields last wins), or appending to a slice declared outside the
// loop. Go randomises map iteration order, so any
// such loop makes reports, figures and error messages nondeterministic —
// exactly the silent nondeterminism the simulator's byte-identical golden
// tests exist to prevent.
//
// Two escapes keep legitimate code clean:
//
//   - range over a sorted key slice instead (stats.SortedKeys or any
//     explicit sort) — the loop no longer ranges over a map at all;
//   - appending to an outer slice is allowed when the same function later
//     sorts that slice (the stats.SortedKeys implementation pattern).
//
// Order-insensitive bodies (summing, counting, building another map) are
// never flagged.
//
// The emission check is transitive: a map-range body that calls a helper
// which (through any chain of calls, per the detflow call graph) reaches a
// fmt stream printer leaks iteration order into output just as surely as
// printing inline, and is flagged the same way.
package detmap

import (
	"go/ast"
	"go/token"
	"go/types"

	"igosim/internal/lint/analysis"
	"igosim/internal/lint/detflow"
)

// Analyzer is the detmap check.
var Analyzer = &analysis.Analyzer{
	Name: "detmap",
	Doc: "flags map-range loops that print, format errors, assign the iteration key or value " +
		"to an outer variable, or append to outer slices without a later sort; " +
		"iterate stats.SortedKeys(m) or sort explicitly",
	Run: run,
}

// emitMethods are writer/report method names that serialise output.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"AddRow": true, "AddRowF": true,
}

// fmtEmitters are fmt functions whose call order shapes observable output.
var fmtEmitters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Errorf": true,
}

func run(pass *analysis.Pass) error {
	g := detflow.For(pass.Prog)
	for _, file := range pass.Files {
		// Map each function body to its node so a range statement can find
		// the enclosing function for the sort-after-append escape.
		var funcBodies []*ast.BlockStmt
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					funcBodies = append(funcBodies, fn.Body)
				}
			case *ast.FuncLit:
				funcBodies = append(funcBodies, fn.Body)
			}
			return true
		})

		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, g, rs, enclosingBody(funcBodies, rs))
			return true
		})
	}
	return nil
}

// enclosingBody returns the innermost function body containing n.
func enclosingBody(bodies []*ast.BlockStmt, n ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= n.Pos() && n.End() <= b.End() {
			if best == nil || (best.Pos() <= b.Pos() && b.End() <= best.End()) {
				best = b
			}
		}
	}
	return best
}

func checkMapRange(pass *analysis.Pass, g *detflow.Graph, rs *ast.RangeStmt, fn *ast.BlockStmt) {
	var appendTargets []types.Object
	reported := false
	report := func(pos token.Pos, what string) {
		if !reported {
			pass.Reportf(rs.For, "map iteration order reaches output via %s; range over sorted keys (e.g. stats.SortedKeys) instead", what)
			reported = true
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if obj, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok && obj.Name() == "append" && len(call.Args) > 0 {
				if obj := outerObject(pass, call.Args[0], rs); obj != nil {
					appendTargets = append(appendTargets, obj)
				}
			}
			if obj, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok && g.EmitsAll(obj) {
				report(call.Pos(), "call to "+obj.Name()+", which transitively prints")
			}
		case *ast.SelectorExpr:
			if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
				if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && fmtEmitters[obj.Name()] {
					report(call.Pos(), "fmt."+obj.Name())
					return true
				}
				if g.EmitsAll(obj) {
					report(call.Pos(), "call to "+obj.Name()+", which transitively prints")
					return true
				}
			}
			if sel := pass.TypesInfo.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal && emitMethods[fun.Sel.Name] {
				report(call.Pos(), "method "+fun.Sel.Name)
			}
		}
		return true
	})
	if reported {
		return
	}

	// Assigning the iteration key or value to an outer variable keeps
	// whichever element the map yields last.
	if iter, dst := lastWrite(pass, rs); dst != nil {
		pass.Reportf(rs.For, "map iteration assigns %s to %s, declared outside the loop: the last element the map yields wins; range over sorted keys instead", iter, dst.Name())
		return
	}

	// Appending to an outer slice is nondeterministic unless the function
	// sorts that slice after the loop.
	for _, obj := range appendTargets {
		if fn == nil || !sortedAfter(pass, fn, rs, obj) {
			pass.Reportf(rs.For, "map iteration appends to %s in nondeterministic order; sort it afterwards or range over sorted keys", obj.Name())
			return
		}
	}
}

// lastWrite finds a plain (=) assignment in rs's body whose right-hand
// side is the loop's key or value variable iter and whose left-hand side
// is dst, a variable declared outside the loop or a field of one. Index
// targets (m2[k] = v) are left alone: each key writes its own element.
// dst is nil when there is none.
func lastWrite(pass *analysis.Pass, rs *ast.RangeStmt) (iter string, dst types.Object) {
	iters := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && rs.Tok == token.DEFINE {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				iters[obj] = true
			}
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if dst != nil || !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return dst == nil
		}
		for i, rhs := range as.Rhs {
			id, ok := ast.Unparen(rhs).(*ast.Ident)
			if !ok || !iters[pass.TypesInfo.Uses[id]] {
				continue
			}
			if v := assignedVar(pass, as.Lhs[i]); v != nil && !within(rs, v) {
				iter, dst = id.Name, v
				return false
			}
		}
		return true
	})
	return iter, dst
}

// assignedVar resolves an assignment target to the variable it writes: an
// identifier, the root of a field selector chain (x.a.b writes into x), or
// a package-level variable (pkg.V). Other targets yield nil.
func assignedVar(pass *analysis.Pass, lhs ast.Expr) types.Object {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := pass.TypesInfo.Uses[x].(*types.PkgName); isPkg {
				return assignedVar(pass, e.Sel)
			}
		}
		return assignedVar(pass, e.X)
	}
	return nil
}

// within reports whether obj is declared inside rs.
func within(rs *ast.RangeStmt, obj types.Object) bool {
	return rs.Pos() <= obj.Pos() && obj.Pos() <= rs.End()
}

// outerObject resolves expr to a variable declared outside the range
// statement (an identifier or the base of a selector), or nil.
func outerObject(pass *analysis.Pass, expr ast.Expr, rs *ast.RangeStmt) types.Object {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil || obj.Pos() == token.NoPos {
		return nil
	}
	if rs.Pos() <= obj.Pos() && obj.Pos() <= rs.End() {
		return nil // loop-local accumulator: scoped to this iteration set
	}
	return obj
}

// sortFuncs are sort/slices functions that impose a total order.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"SortFunc": true, "SortStableFunc": true,
}

// sortedAfter reports whether fn contains, after the range statement, a
// sort.*/slices.* call referencing obj.
func sortedAfter(pass *analysis.Pass, fn *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		cf, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || cf.Pkg() == nil || !sortFuncs[cf.Name()] {
			return true
		}
		if p := cf.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			refs := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					refs = true
				}
				return !refs
			})
			if refs {
				found = true
				break
			}
		}
		return true
	})
	return found
}
