package detflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"igosim/internal/lint/loader"
)

// origin collapses a generic instantiation to its declared object, so call
// edges land on the node created from the declaration.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// clockFuncs are the time package entry points that read or depend on the
// wall clock. Formatting and arithmetic on time values stays clean.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// randPkgs are packages whose every function is an ambient-randomness
// source.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// externalSource classifies a standard-library function as a taint source.
func externalSource(fn *types.Func) (Kind, string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0, "", false
	}
	switch {
	case pkg.Path() == "time" && clockFuncs[fn.Name()]:
		return KindWallclock, "time." + fn.Name(), true
	case randPkgs[pkg.Path()]:
		return KindRand, pkg.Name() + "." + fn.Name(), true
	case pkg.Path() == "hash/maphash" && fn.Name() == "MakeSeed":
		return KindRand, "maphash.MakeSeed", true
	}
	return 0, "", false
}

// streamPrinters are the fmt functions that write to a stream as a side
// effect; calling one inside a map-range makes the output order-dependent.
// Sprint*/Errorf build values instead of emitting, so they stay with
// detmap's direct in-loop check.
var streamPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func isStreamPrinter(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && streamPrinters[fn.Name()]
}

// isLockName matches mutex-acquisition method names: a function that takes
// a lock anywhere is exempt from the unsynchronized-global-write source
// (the write is synchronized; cross-goroutine ordering is the scheduler's
// problem, not this lattice's).
func isLockName(name string) bool {
	return name == "Lock" || name == "RLock"
}

// trackedVar reports whether assignments to v are worth tracking for call
// resolution: struct fields and package-level variables. Parameters and
// locals are handled by value-flow at their producing sites.
func trackedVar(v *types.Var) bool {
	return v != nil && (v.IsField() || packageLevel(v))
}

// packageLevel reports whether v is declared at package scope.
func packageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// syncType reports whether t is declared in sync or sync/atomic (writing a
// whole mutex or atomic value is initialization, not shared-state drift).
func syncType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic")
}

// isFuncType reports whether t's underlying type is a function signature.
func isFuncType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(pkg *loader.Package, e ast.Expr) bool {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.IsNil()
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// paramIndex returns the index of p in fn's parameter list, or -1.
func paramIndex(fn *types.Func, p *types.Var) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == p {
			return i
		}
	}
	return -1
}

// rootObject resolves the base object a write expression ultimately stores
// into: the object of the leftmost identifier, looking through selectors,
// indexing, derefs and parens. Qualified references (pkg.Var) resolve to
// the named variable, not the package name.
func rootObject(pkg *loader.Package, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		if obj := pkg.Info.Uses[e]; obj != nil {
			return obj
		}
		return pkg.Info.Defs[e]
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				return pkg.Info.Uses[e.Sel]
			}
		}
		return rootObject(pkg, e.X)
	case *ast.IndexExpr:
		return rootObject(pkg, e.X)
	case *ast.StarExpr:
		return rootObject(pkg, e.X)
	case *ast.ParenExpr:
		return rootObject(pkg, e.X)
	}
	return nil
}

// targetVar resolves an assignment LHS to the variable it stores into (the
// field for x.F, the variable for plain identifiers), or nil.
func targetVar(pkg *loader.Package, lhs ast.Expr) *types.Var {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok {
			return v
		}
		v, _ := pkg.Info.Defs[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := pkg.Info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}

// calleeFunc returns the statically resolved callee of a call, or nil.
func calleeFunc(pkg *loader.Package, call *ast.CallExpr) *types.Func {
	if tv, ok := pkg.Info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		return nil // conversion
	}
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgDot formats an external function as pkg.Name.
func pkgDot(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// roundFuncs make a float's rounding direction explicit.
var roundFuncs = map[string]bool{
	"Round": true, "Floor": true, "Ceil": true, "Trunc": true, "RoundToEven": true,
}

// FloatTruncation reports whether e contains an integer conversion whose
// operand is unrounded float arithmetic — the silent off-by-one source
// cycleint exists for — returning the conversion's type name ("int64").
// Shared here so cycleint's direct check and detflow's transitive
// truncated-return fact agree exactly.
func FloatTruncation(info *types.Info, e ast.Expr) (pos token.Pos, conv string, found bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		basic, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsInteger == 0 {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		at := info.TypeOf(arg)
		if at == nil {
			return true
		}
		ab, ok := at.Underlying().(*types.Basic)
		if !ok || ab.Info()&types.IsFloat == 0 {
			return true
		}
		if isRoundCall(info, arg) || !containsFloatArith(info, arg) {
			return true
		}
		pos, conv, found = call.Pos(), basic.Name(), true
		return false
	})
	return pos, conv, found
}

// isRoundCall reports whether e is math.Round/Floor/Ceil/Trunc(...).
func isRoundCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && obj.Pkg() != nil && obj.Pkg().Path() == "math" && roundFuncs[obj.Name()]
}

// containsFloatArith reports whether e contains +,-,*,/ on float operands,
// ignoring operands already inside an explicit rounding call.
func containsFloatArith(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isRoundCall(info, call) {
			return false
		}
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return true
		}
		if t := info.TypeOf(bin.X); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// certIndex records the //lint:walldomain markers of one package and which
// declarations claimed them.
type certIndex struct {
	byLine map[string]map[int]*certMark
	all    []*certMark
}

type certMark struct {
	pos  token.Pos
	used bool
}

// collectCerts indexes every walldomain marker in the package by file and
// line.
func collectCerts(pkg *loader.Package) *certIndex {
	ci := &certIndex{byLine: make(map[string]map[int]*certMark)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if text != "lint:walldomain" && !strings.HasPrefix(text, "lint:walldomain ") &&
					!strings.HasPrefix(text, "lint:walldomain\t") {
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				if ci.byLine[p.Filename] == nil {
					ci.byLine[p.Filename] = make(map[int]*certMark)
				}
				m := &certMark{pos: c.Pos()}
				ci.byLine[p.Filename][p.Line] = m
				ci.all = append(ci.all, m)
			}
		}
	}
	return ci
}

// certFor reports whether fd carries a walldomain certification: a marker
// on the declaration line, the line directly above it, or any line of the
// attached doc comment. Matched markers are claimed, so leftovers surface
// as stray.
func (ci *certIndex) certFor(fset *token.FileSet, fd *ast.FuncDecl) (bool, token.Pos) {
	p := fset.Position(fd.Pos())
	lines := []int{p.Line, p.Line - 1}
	if fd.Doc != nil {
		start := fset.Position(fd.Doc.Pos()).Line
		end := fset.Position(fd.Doc.End()).Line
		for l := start; l <= end; l++ {
			lines = append(lines, l)
		}
	}
	var hit *certMark
	for _, l := range lines {
		if m := ci.byLine[p.Filename][l]; m != nil {
			m.used = true
			if hit == nil {
				hit = m
			}
		}
	}
	if hit == nil {
		return false, token.NoPos
	}
	return true, hit.pos
}

// stray returns the positions of markers no declaration claimed.
func (ci *certIndex) stray() []token.Pos {
	var out []token.Pos
	for _, m := range ci.all {
		if !m.used {
			out = append(out, m.pos)
		}
	}
	return out
}
