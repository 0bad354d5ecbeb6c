// Call-graph construction for the detflow analyzer: one node per declared
// function, method, function literal and per-package initializer across
// every package of the loader's Program, with edges that over-approximate
// "may call". Resolution rules, from precise to conservative:
//
//   - direct calls to declared functions and methods resolve through static
//     types (generic instantiations collapse to their Origin declaration);
//   - interface method calls resolve by class-hierarchy analysis: an edge
//     to the matching method of every in-program named type implementing
//     the interface;
//   - function literals are nodes of their own, with an edge from the
//     lexically enclosing function (creating the value may mean calling
//     it), and they inherit that function's //lint:walldomain
//     certification;
//   - referencing a declared function as a value adds the same edge as
//     calling it would — whoever receives the value may call it;
//   - calls through function-typed struct fields and package-level
//     variables resolve to the set of functions ever assigned to that
//     variable anywhere in the program (resolved after the whole walk, so
//     assignment order cannot hide a candidate; one level of parameter
//     flow covers the constructor-stores-its-argument pattern); if any
//     assignment is unresolvable, every call through the variable is
//     tainted "unknown callee";
//   - calls through function-typed parameters and locals add no edge at
//     the call site — the taint was already attributed where the value was
//     created or handed over (literal enclosure, value reference, field
//     assignment).
//
// The graph also records each node's direct taint sources (wall-clock,
// randomness, order-dependent map emission, unsynchronized global writes)
// and two derived facts the retrofitted analyzers consume: transitive
// stream emission (detmap) and truncated-float returns (cycleint).
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"igosim/internal/lint/loader"
)

// Kind is one lattice element of the determinism taint.
type Kind uint8

const (
	KindWallclock   Kind = iota // time.Now/Since/Sleep/After/Tick/NewTimer/NewTicker
	KindRand                    // math/rand, math/rand/v2, crypto/rand, maphash.MakeSeed
	KindMapOrder                // map iteration order reaching emitted output
	KindGlobalWrite             // unsynchronized write to a package-level variable
	KindUnknown                 // call through an unresolvable function value
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindWallclock:
		return "wall-clock"
	case KindRand:
		return "ambient randomness"
	case KindMapOrder:
		return "order-dependent map emission"
	case KindGlobalWrite:
		return "unsynchronized global write"
	default:
		return "unresolvable function value"
	}
}

// Taint is a set of Kinds.
type Taint uint8

// bit returns the Taint with only k set.
func bit(k Kind) Taint { return Taint(1) << k }

// Has reports whether k is in the set.
func (t Taint) Has(k Kind) bool { return t&bit(k) != 0 }

// src is one direct taint source site inside a function body.
type src struct {
	pos  token.Pos
	desc string // e.g. "time.Now", "write to package-level total"
}

// Node is one function-level vertex of the call graph.
type Node struct {
	Obj  *types.Func     // nil for literals and package initializers
	Pkg  *loader.Package // defining package
	Pos  token.Pos       // declaration position (reporting anchor)
	name string          // display name, e.g. "runner.runTask", "sim.Step.func1"

	parent *Node   // enclosing node for function literals
	calls  []*Node // may-call edges, in source order

	direct    [numKinds]*src // first direct source per kind
	directSet Taint

	emitsDirect bool    // calls a fmt stream printer directly
	truncDirect *src    // returns an unrounded float→int truncation
	returnCalls []*Node // direct calls in return position (trunc propagation)
	mapCalls    []mcall // calls made inside a map-range body
	globalWr    []src   // global writes pending the lock heuristic
	hasLock     bool    // body calls .Lock/.RLock (sync heuristic)
	isInit      bool    // func init or the package-initializer node

	certified bool      // carries //lint:walldomain
	certPos   token.Pos // position of the certification marker

	// propagation results (computed by the fixpoint in taint.go)
	taint    Taint // with certification barriers honoured
	rawTaint Taint // ignoring barriers (load-bearing check)
	emitsAll bool
	truncAll bool
}

// Name returns the node's display name.
func (n *Node) Name() string { return n.name }

// mcall is one call made lexically inside a range-over-map body.
type mcall struct {
	rangePos token.Pos
	to       *Node
}

// candSet is the resolved assignment set of one tracked function-typed
// variable (struct field or package-level var).
type candSet struct {
	funcs      []*Node
	unresolved bool
	pending    []pendingParam // param-flow resolutions, applied after the walk
}

type pendingParam struct {
	fn    *types.Func // enclosing function whose parameter was stored
	index int         // parameter index
}

// argSet accumulates the function values observed flowing into one
// parameter position across all in-program call sites.
type argSet struct {
	funcs      []*Node
	unresolved bool
}

// varSite is one deferred call or value escape through a tracked variable.
// Sites resolve after the whole program is walked so that an assignment in
// a later-walked package still reaches an earlier-walked call site.
type varSite struct {
	node     *Node
	pos      token.Pos
	v        *types.Var
	rangePos token.Pos // enclosing map-range, if any
	inMap    bool
	read     bool // value escape (read) rather than a call
}

// Graph is the whole-program call graph plus taint facts.
type Graph struct {
	prog  *loader.Program
	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
	all   []*Node // deterministic order: package path, then position

	varCands  map[*types.Var]*candSet         // tracked func-typed vars -> assigned funcs
	varSites  []varSite                       // deferred uses of tracked vars
	argCands  map[*types.Func]map[int]*argSet // callee -> param index -> observed values
	ifaceMemo map[string][]*Node              // CHA cache: iface + method

	namedTypes []*types.Named         // in-program named types (CHA universe)
	strayCerts map[string][]token.Pos // pkg path -> walldomain markers on nothing

	// reach maps every node reachable from a top-level cycle-domain entry
	// (along non-certified edges) to its BFS predecessor; entries map to nil.
	reach map[*Node]*Node
}

// build constructs the graph for a program. Deterministic: packages in
// sorted path order, files and declarations in source order.
func build(prog *loader.Program) *Graph {
	g := &Graph{
		prog:       prog,
		byObj:      make(map[*types.Func]*Node),
		byLit:      make(map[*ast.FuncLit]*Node),
		varCands:   make(map[*types.Var]*candSet),
		argCands:   make(map[*types.Func]map[int]*argSet),
		ifaceMemo:  make(map[string][]*Node),
		strayCerts: make(map[string][]token.Pos),
	}
	pkgs := prog.Packages()
	certs := make(map[string]*certIndex, len(pkgs))

	// Pass 1: a node per declared function/method, the CHA type universe,
	// and certification markers.
	for _, pkg := range pkgs {
		ci := collectCerts(pkg)
		certs[pkg.Path] = ci
		scope := pkg.Types.Scope()
		for _, tn := range scope.Names() {
			if obj, ok := scope.Lookup(tn).(*types.TypeName); ok && !obj.IsAlias() {
				if named, ok := obj.Type().(*types.Named); ok {
					g.namedTypes = append(g.namedTypes, named)
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &Node{
					Obj:    obj,
					Pkg:    pkg,
					Pos:    fd.Name.Pos(),
					name:   declName(pkg, fd),
					isInit: fd.Name.Name == "init" && fd.Recv == nil,
				}
				n.certified, n.certPos = ci.certFor(pkg.Fset, fd)
				g.byObj[obj] = n
				g.all = append(g.all, n)
			}
		}
	}

	// Pass 2: walk bodies and package-level initializers, creating literal
	// nodes on the fly and recording edges, sources and assignments.
	for _, pkg := range pkgs {
		var initNode *Node
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					n := g.byObj[pkg.Info.Defs[d.Name].(*types.Func)]
					w := newWalker(g, pkg, n)
					w.walkBody(d.Body)
					n.finish()
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || len(vs.Values) == 0 {
							continue
						}
						if initNode == nil {
							initNode = &Node{
								Pkg:    pkg,
								Pos:    file.Name.Pos(),
								name:   pkg.Types.Name() + ".init",
								isInit: true,
							}
							g.all = append(g.all, initNode)
						}
						w := newWalker(g, pkg, initNode)
						for i, v := range vs.Values {
							// `var f = rhs` of function type at package
							// level is a tracked variable like any other.
							if i < len(vs.Names) {
								if obj, ok := pkg.Info.Defs[vs.Names[i]].(*types.Var); ok {
									w.recordVarAssign(obj, v)
								}
							}
							w.walkExpr(v)
						}
					}
				}
			}
		}
	}

	// Leftover walldomain markers attach to no declaration: recorded so a
	// certification cannot silently drift away from its function.
	for _, pkg := range pkgs {
		if stray := certs[pkg.Path].stray(); len(stray) > 0 {
			g.strayCerts[pkg.Path] = stray
		}
	}

	g.finalize()
	g.propagate()
	return g
}

// finish applies end-of-body heuristics: global writes only count when the
// function is not an initializer and holds no lock anywhere in its body.
func (n *Node) finish() {
	if n.isInit || n.hasLock {
		return
	}
	for i := range n.globalWr {
		n.addDirect(KindGlobalWrite, n.globalWr[i].pos, n.globalWr[i].desc)
	}
}

func (n *Node) addDirect(k Kind, pos token.Pos, desc string) {
	if n.direct[k] == nil {
		n.direct[k] = &src{pos: pos, desc: desc}
	}
	n.directSet |= bit(k)
}

func (n *Node) addCall(to *Node) {
	if to == nil || to == n {
		return
	}
	n.calls = append(n.calls, to)
}

// effCertified reports whether n or a lexical ancestor carries a
// //lint:walldomain certification. Certifications inside cycle-domain
// packages are void — those packages cannot opt out.
func (n *Node) effCertified() bool {
	if cycleDomainPkg(n.Pkg.Path) {
		return false
	}
	for m := n; m != nil; m = m.parent {
		if m.certified {
			return true
		}
	}
	return false
}

// declName formats a declared function's display name: pkg.Func or
// pkg.Type.Method.
func declName(pkg *loader.Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg.Types.Name() + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver Cache[K]
		t = ix.X
	}
	if ix, ok := t.(*ast.IndexListExpr); ok { // Cache[K, V]
		t = ix.X
	}
	recv := "?"
	if id, ok := t.(*ast.Ident); ok {
		recv = id.Name
	}
	return pkg.Types.Name() + "." + recv + "." + fd.Name.Name
}

// walker builds one node's edges and sources from its body.
type walker struct {
	g    *Graph
	pkg  *loader.Package
	node *Node
	lits int // literal counter for display names

	consumed  map[ast.Node]bool // callee expressions classified by call()
	mapRanges []token.Pos       // stack of enclosing range-over-map statements
}

func newWalker(g *Graph, pkg *loader.Package, node *Node) *walker {
	return &walker{g: g, pkg: pkg, node: node, consumed: make(map[ast.Node]bool)}
}

func (w *walker) walkBody(body *ast.BlockStmt) {
	ast.Inspect(body, w.visit)
}

func (w *walker) walkExpr(e ast.Expr) {
	ast.Inspect(e, w.visit)
}

// visit dispatches on one AST node. Function literals are not descended
// into here — they become their own graph node walked by a child walker.
func (w *walker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		w.node.addCall(w.litNode(n))
		return false
	case *ast.CallExpr:
		w.call(n)
		// Descend anyway: arguments and the receiver chain may hold calls,
		// references and literals of their own. The callee expression is
		// marked consumed so the reference pass below skips it.
		fun := ast.Unparen(n.Fun)
		w.consumed[fun] = true
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			w.consumed[sel.Sel] = true
		}
		return true
	case *ast.RangeStmt:
		if t := w.pkg.Info.TypeOf(n.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				w.walkExpr(n.X)
				w.mapRanges = append(w.mapRanges, n.For)
				ast.Inspect(n.Body, w.visit)
				w.mapRanges = w.mapRanges[:len(w.mapRanges)-1]
				return false
			}
		}
		return true
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			w.assignment(lhs, rhsFor(n, i))
		}
		return true
	case *ast.IncDecStmt:
		w.assignment(n.X, nil)
		return true
	case *ast.CompositeLit:
		w.compositeAssigns(n)
		return true
	case *ast.ReturnStmt:
		w.returns(n)
		return true
	case *ast.Ident:
		if !w.consumed[n] {
			w.reference(n, n)
		}
		return true
	case *ast.SelectorExpr:
		if !w.consumed[n] {
			w.reference(n.Sel, n)
		}
		w.consumed[n.Sel] = true // already handled; skip as bare identifier
		return true
	}
	return true
}

// rhsFor pairs an assignment LHS with its RHS expression (nil for the
// multi-value forms where no single expression corresponds).
func rhsFor(a *ast.AssignStmt, i int) ast.Expr {
	if len(a.Rhs) == len(a.Lhs) {
		return a.Rhs[i]
	}
	return nil
}

// litNode returns the node for a function literal, creating and walking it
// on first sight (memoized: candidate resolution may reach a literal
// before the enclosing traversal does).
func (w *walker) litNode(lit *ast.FuncLit) *Node {
	if n, ok := w.g.byLit[lit]; ok {
		return n
	}
	w.lits++
	n := &Node{
		Pkg:    w.pkg,
		Pos:    lit.Pos(),
		name:   fmt.Sprintf("%s.func%d", w.node.name, w.lits),
		parent: w.node,
	}
	w.g.byLit[lit] = n
	w.g.all = append(w.g.all, n)
	cw := newWalker(w.g, w.pkg, n)
	cw.walkBody(lit.Body)
	n.finish()
	return n
}

func (w *walker) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Type conversions and builtins are not calls.
	if tv, ok := w.pkg.Info.Types[fun]; ok && tv.IsType() {
		return
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := w.pkg.Info.Uses[f].(type) {
		case *types.Func:
			w.callFunc(call, obj)
		case *types.Var:
			w.callVar(call, obj)
		}
	case *ast.SelectorExpr:
		switch obj := w.pkg.Info.Uses[f.Sel].(type) {
		case *types.Func:
			if sel, ok := w.pkg.Info.Selections[f]; ok && sel.Kind() == types.MethodVal {
				if recv := sel.Recv(); recv != nil && types.IsInterface(recv) {
					w.callInterface(recv, obj)
					return
				}
			}
			w.callFunc(call, obj)
		case *types.Var:
			w.callVar(call, obj)
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: the enclosure edge added by visit()
		// covers it.
	default:
		// spm.New[K](...) — generic instantiation of a declared function.
		if obj := instantiatedFunc(w.pkg, fun); obj != nil {
			w.callFunc(call, obj)
			return
		}
		// occ[i](...) — a call through an element of a collection rooted at
		// a variable. A local or parameter root needs no edge (the values'
		// taint was attributed where they were created); a tracked root
		// defers like the variable itself.
		if v, ok := rootObject(w.pkg, fun).(*types.Var); ok {
			w.callVar(call, v)
			return
		}
		// Anything else (a call returning a func, a type assertion, ...):
		// unresolvable.
		w.node.addDirect(KindUnknown, call.Pos(), "call through an unresolvable function value")
	}
}

// instantiatedFunc resolves an explicit generic instantiation callee
// (f[T] or pkg.F[T1, T2]) to the declared function it instantiates.
func instantiatedFunc(pkg *loader.Package, fun ast.Expr) *types.Func {
	var x ast.Expr
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		x = ix.X
	case *ast.IndexListExpr:
		x = ix.X
	default:
		return nil
	}
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

// callFunc handles a statically resolved function or method call.
func (w *walker) callFunc(call *ast.CallExpr, obj *types.Func) {
	obj = origin(obj)
	if isLockName(obj.Name()) {
		w.node.hasLock = true
	}
	if to, ok := w.g.byObj[obj]; ok {
		w.edgeTo(to)
		w.collectArgs(call, obj)
		return
	}
	// External (standard library) callee: classify against the source
	// tables; anything else is assumed deterministic. Function-typed
	// arguments handed to an external callee (sort.Slice's less) need no
	// extra edge: literal-enclosure and value-reference edges already
	// attribute their taint here.
	if k, desc, ok := externalSource(obj); ok {
		w.node.addDirect(k, call.Pos(), desc)
		return
	}
	if isStreamPrinter(obj) {
		w.node.emitsDirect = true
		if len(w.mapRanges) > 0 {
			w.node.addDirect(KindMapOrder, w.mapRanges[len(w.mapRanges)-1],
				"map-range body calls "+pkgDot(obj))
		}
	}
}

// edgeTo adds a call edge plus the map-range bookkeeping.
func (w *walker) edgeTo(to *Node) {
	w.node.addCall(to)
	if to != nil && to != w.node && len(w.mapRanges) > 0 {
		w.node.mapCalls = append(w.node.mapCalls,
			mcall{rangePos: w.mapRanges[len(w.mapRanges)-1], to: to})
	}
}

// collectArgs records function values flowing into an in-program callee's
// parameters, for the one-level param-flow used by field resolution.
func (w *walker) collectArgs(call *ast.CallExpr, obj *types.Func) {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi < 0 || pi >= sig.Params().Len() {
			continue
		}
		if !isFuncType(sig.Params().At(pi).Type()) {
			continue
		}
		m := w.g.argCands[obj]
		if m == nil {
			m = make(map[int]*argSet)
			w.g.argCands[obj] = m
		}
		as := m[pi]
		if as == nil {
			as = &argSet{}
			m[pi] = as
		}
		if isNilExpr(w.pkg, arg) {
			continue
		}
		if cand := w.resolveFuncExpr(arg); cand != nil {
			as.funcs = append(as.funcs, cand)
		} else {
			as.unresolved = true
		}
	}
}

// callInterface resolves an interface method call by class-hierarchy
// analysis over the program's named types.
func (w *walker) callInterface(recv types.Type, obj *types.Func) {
	if isLockName(obj.Name()) { // sync.Locker-style interfaces
		w.node.hasLock = true
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, to := range w.g.implementers(iface, obj) {
		w.edgeTo(to)
	}
}

// implementers returns the in-program methods an interface method call may
// dispatch to, memoized per (interface, method).
func (g *Graph) implementers(iface *types.Interface, m *types.Func) []*Node {
	key := iface.String() + "\x00" + m.Name()
	if cached, ok := g.ifaceMemo[key]; ok {
		return cached
	}
	var out []*Node
	for _, named := range g.namedTypes {
		if named.TypeParams().Len() > 0 {
			continue // uninstantiated generics: reached by static calls instead
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		sel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name())
		if sel == nil {
			continue
		}
		if fn, ok := sel.Obj().(*types.Func); ok {
			if node, ok := g.byObj[origin(fn)]; ok {
				out = append(out, node)
			}
		}
	}
	g.ifaceMemo[key] = out
	return out
}

// callVar defers a call through a function-typed variable: tracked
// variables resolve after the whole program is walked; parameters and
// locals add nothing here (their taint lives where the value was made).
func (w *walker) callVar(call *ast.CallExpr, v *types.Var) {
	if !trackedVar(v) {
		return
	}
	if !isFuncType(v.Type()) {
		// An element of a tracked collection (slice/map of funcs in a field
		// or global): candidates are not tracked through collections, so
		// the callee is unknown.
		w.node.addDirect(KindUnknown, call.Pos(),
			"call through an element of "+v.Name()+", a collection of function values")
		return
	}
	w.addVarSite(varSite{node: w.node, pos: call.Pos(), v: v})
}

func (w *walker) addVarSite(s varSite) {
	if len(w.mapRanges) > 0 {
		s.inMap = true
		s.rangePos = w.mapRanges[len(w.mapRanges)-1]
	}
	w.g.varSites = append(w.g.varSites, s)
}

// reference handles a use of a function as a value (passed, stored,
// returned): the receiver may call it, so the edge is the same as a call.
// References to external nondeterminism sources taint directly — handing
// out time.Now as a value is reading the clock at one remove.
func (w *walker) reference(id *ast.Ident, at ast.Expr) {
	switch obj := w.pkg.Info.Uses[id].(type) {
	case *types.Func:
		fn := origin(obj)
		if to, ok := w.g.byObj[fn]; ok {
			w.node.addCall(to)
			return
		}
		if k, desc, ok := externalSource(fn); ok {
			w.node.addDirect(k, at.Pos(), desc+" (as a function value)")
		}
	case *types.Var:
		// Reading a tracked function-typed variable lets the value escape:
		// whoever receives it may call it.
		if trackedVar(obj) && isFuncType(obj.Type()) {
			w.addVarSite(varSite{node: w.node, pos: at.Pos(), v: obj, read: true})
		}
	}
}

// assignment records global writes and tracked-variable candidates for one
// LHS (rhs is nil for IncDec and multi-value assignments).
func (w *walker) assignment(lhs ast.Expr, rhs ast.Expr) {
	if v := targetVar(w.pkg, lhs); v != nil && rhs != nil {
		w.recordVarAssign(v, rhs)
	}
	// Unsynchronized global write: the write target roots at a
	// package-level variable, outside init, with no lock held anywhere in
	// this function (applied in finish).
	if v, ok := rootObject(w.pkg, lhs).(*types.Var); ok && packageLevel(v) && !syncType(v.Type()) {
		w.node.globalWr = append(w.node.globalWr,
			src{pos: lhs.Pos(), desc: "write to package-level " + v.Name()})
	}
}

// recordVarAssign records rhs as a candidate for tracked variable v.
func (w *walker) recordVarAssign(v *types.Var, rhs ast.Expr) {
	if !trackedVar(v) || !isFuncType(v.Type()) || isNilExpr(w.pkg, rhs) {
		return
	}
	cs := w.g.varCands[v]
	if cs == nil {
		cs = &candSet{}
		w.g.varCands[v] = cs
	}
	if cand := w.resolveFuncExpr(rhs); cand != nil {
		cs.funcs = append(cs.funcs, cand)
		return
	}
	// One level of parameter flow: `func NewX(f func()) { x.f = f }`
	// resolves through the function values passed at NewX's call sites.
	if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && w.node.Obj != nil {
		if p, ok := w.pkg.Info.Uses[id].(*types.Var); ok {
			if idx := paramIndex(w.node.Obj, p); idx >= 0 {
				cs.pending = append(cs.pending, pendingParam{fn: w.node.Obj, index: idx})
				return
			}
		}
	}
	cs.unresolved = true
}

// compositeAssigns records function values stored through composite
// literals (keyed or positional struct fields).
func (w *walker) compositeAssigns(cl *ast.CompositeLit) {
	t := w.pkg.Info.TypeOf(cl)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range cl.Elts {
		var field *types.Var
		var val ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				field, _ = w.pkg.Info.Uses[id].(*types.Var)
			}
			val = kv.Value
		} else if i < st.NumFields() {
			field, val = st.Field(i), elt
		}
		if field != nil && val != nil {
			w.recordVarAssign(field, val)
		}
	}
}

// returns records truncated-float return facts and return-position calls.
func (w *walker) returns(r *ast.ReturnStmt) {
	for _, res := range r.Results {
		if pos, conv, ok := FloatTruncation(w.pkg.Info, res); ok {
			if w.node.truncDirect == nil {
				w.node.truncDirect = &src{pos: pos, desc: conv + "(...) of unrounded float arithmetic"}
			}
			continue
		}
		if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
			if obj := calleeFunc(w.pkg, call); obj != nil {
				if to, ok := w.g.byObj[origin(obj)]; ok {
					w.node.returnCalls = append(w.node.returnCalls, to)
				}
			}
		}
	}
}

// resolveFuncExpr resolves an expression to the graph node of the function
// value it denotes, or nil when it cannot.
func (w *walker) resolveFuncExpr(e ast.Expr) *Node {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return w.litNode(e)
	case *ast.Ident:
		if obj, ok := w.pkg.Info.Uses[e].(*types.Func); ok {
			return w.g.byObj[origin(obj)]
		}
	case *ast.SelectorExpr:
		if obj, ok := w.pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return w.g.byObj[origin(obj)]
		}
	case *ast.IndexExpr, *ast.IndexListExpr:
		if obj := instantiatedFunc(w.pkg, e); obj != nil {
			return w.g.byObj[origin(obj)]
		}
	}
	return nil
}

// finalize resolves the deferred parts of construction: one-level
// parameter flow into tracked variables, then every call/read site through
// a tracked variable against the program-wide candidate set.
func (g *Graph) finalize() {
	// Sorted by declaration position so candidate (and hence edge) order is
	// independent of map iteration — detflow's own chains must be as
	// deterministic as the code it checks.
	vars := make([]*types.Var, 0, len(g.varCands))
	for v := range g.varCands {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	for _, v := range vars {
		cs := g.varCands[v]
		for _, p := range cs.pending {
			as := g.argCands[p.fn][p.index]
			if as == nil || as.unresolved {
				cs.unresolved = true
				continue
			}
			cs.funcs = append(cs.funcs, as.funcs...)
		}
		cs.pending = nil
	}
	for _, s := range g.varSites {
		cs := g.varCands[s.v]
		if cs == nil {
			// Never assigned a non-nil value anywhere in shipping code:
			// the call site is dead (nilguard owns the guard discipline).
			continue
		}
		if cs.unresolved {
			what := "call through "
			if s.read {
				what = "use of "
			}
			s.node.addDirect(KindUnknown, s.pos,
				what+s.v.Name()+", assigned an unresolvable function value")
			continue
		}
		for _, f := range cs.funcs {
			s.node.addCall(f)
			if s.inMap && !s.read {
				s.node.mapCalls = append(s.node.mapCalls, mcall{rangePos: s.rangePos, to: f})
			}
		}
	}
}
