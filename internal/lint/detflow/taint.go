package detflow

import (
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"igosim/internal/lint/analysis"
	"igosim/internal/lint/loader"
)

// cyclePackages are the module-relative paths whose every function is a
// Cycle-domain entry point: anything here must be provably deterministic.
// This is the old wallclock forbidden list plus the analytic bounds and
// systolic models the DSE trusts.
var cyclePackages = []string{
	"internal/sim",
	"internal/core",
	"internal/schedule",
	"internal/dram",
	"internal/energy",
	"internal/refmodel",
	"internal/proptest",
	"internal/dse",
	"internal/analytic",
	"internal/systolic",
}

// cycleFuncs names Cycle-domain entry points inside otherwise wall-adjacent
// packages: the metrics Cycle registry's emission path must stay
// deterministic even though the package also hosts Wall-domain gauges.
var cycleFuncs = map[string]map[string]bool{
	"internal/metrics": {
		"Finalize":    true,
		"Snapshot":    true,
		"Fingerprint": true,
	},
	// The serving layer's request→result function: the HTTP server around
	// it is wall-domain (sockets, timeouts, latency histograms), but every
	// response body must be a pure function of the canonicalized request —
	// byte-identical at any -j and any cache state — so the evaluator (and
	// the canonicalization feeding the cache fingerprint) is held to the
	// cycle-domain proof.
	"internal/serve": {
		"Evaluate":     true,
		"canonicalize": true,
		"Fingerprint":  true,
	},
	// The two-phase executor's residency cache (DESIGN.md §3l): the
	// resolve/replay fast path in internal/sim consults a runner.Bounded
	// from cycle-domain code, so the cache's lookup/admission surface is
	// held to the cycle-domain proof even though the package also hosts
	// the wall-domain worker pool. Name-matching deliberately covers the
	// Cache and Pool methods of the same names — every cache the engine
	// reads mid-simulation must meet the same bar.
	"internal/runner": {
		"Get": true,
		"Put": true,
		"Cap": true,
	},
}

// cycleDomainPkg reports whether every function of the package is a
// Cycle-domain entry point.
func cycleDomainPkg(path string) bool {
	return analysis.InModuleAny(path, cyclePackages)
}

// cycleEntry reports whether node n is a Cycle-domain entry point.
func cycleEntry(n *Node) bool {
	if cycleDomainPkg(n.Pkg.Path) {
		return true
	}
	for rel, names := range cycleFuncs {
		if analysis.InModule(n.Pkg.Path, rel) && n.Obj != nil && names[n.Obj.Name()] {
			return true
		}
	}
	return false
}

// propagate runs the emission/truncation fixpoints, derives map-order
// sources from final emission facts, then runs the two taint fixpoints.
// Every step is monotone over a finite lattice, so iteration terminates;
// the deterministic node order makes the result order-independent.
func (g *Graph) propagate() {
	for _, n := range g.all {
		n.emitsAll = n.emitsDirect
		n.truncAll = n.truncDirect != nil
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.all {
			for _, to := range n.calls {
				if to.emitsAll && !n.emitsAll {
					n.emitsAll = true
					changed = true
				}
			}
			for _, to := range n.returnCalls {
				if to.truncAll && !n.truncAll {
					n.truncAll = true
					changed = true
				}
			}
		}
	}

	// Calling a transitively-emitting function from a map-range body leaks
	// iteration order into output: a map-order source at the range site.
	for _, n := range g.all {
		for _, mc := range n.mapCalls {
			if mc.to.emitsAll && !mc.to.effCertified() {
				n.addDirect(KindMapOrder, mc.rangePos,
					"map-range body calls "+mc.to.name+", which emits output")
			}
		}
	}

	for _, n := range g.all {
		n.taint = n.directSet
		n.rawTaint = n.directSet
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.all {
			for _, to := range n.calls {
				// Certification is the propagation barrier: a certified
				// callee's nondeterminism is declared wall-domain-only.
				if add := to.taint &^ n.taint; add != 0 && !to.effCertified() {
					n.taint |= add
					changed = true
				}
				if add := to.rawTaint &^ n.rawTaint; add != 0 {
					n.rawTaint |= add
					changed = true
				}
			}
		}
	}

	// Entry reachability: every node reachable from a top-level cycle-domain
	// entry point along non-certified edges, each with one BFS predecessor.
	// Source-site diagnostics (map order, global writes, unknown callees)
	// report here once per site instead of once per entry point, and use the
	// predecessors to show a real entry-to-site chain.
	g.reach = make(map[*Node]*Node)
	var queue []*Node
	for _, n := range g.all {
		if n.parent == nil && cycleEntry(n) {
			g.reach[n] = nil
			queue = append(queue, n)
		}
	}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		for _, to := range cur.calls {
			if to.effCertified() {
				continue
			}
			if _, ok := g.reach[to]; !ok {
				g.reach[to] = cur
				queue = append(queue, to)
			}
		}
	}
}

// reachChain formats the recorded entry-to-n path, ending at n's direct
// source of k: "core.Run → sim.dump → write to package-level total (x.go:9)".
func (g *Graph) reachChain(n *Node, k Kind) string {
	var names []string
	for m := n; m != nil; m = g.reach[m] {
		names = append([]string{m.name}, names...)
		if g.reach[m] == nil {
			break
		}
	}
	s := n.direct[k]
	p := g.position(s.pos)
	return strings.Join(names, " → ") + " → " + s.desc +
		" (" + filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line) + ")"
}

// chain returns the shortest call path from n to a direct source of k,
// formatted "a.F → b.G → time.Now (file.go:12)". BFS over the same edges
// taint flowed through, so a reported chain is always a real propagation
// path.
func (g *Graph) chain(n *Node, k Kind) string {
	type qent struct {
		node *Node
		prev int
	}
	queue := []qent{{node: n, prev: -1}}
	seen := map[*Node]bool{n: true}
	for i := 0; i < len(queue); i++ {
		cur := queue[i].node
		if s := cur.direct[k]; s != nil {
			var names []string
			for j := i; j != -1; j = queue[j].prev {
				names = append([]string{queue[j].node.name}, names...)
			}
			p := g.position(s.pos)
			return strings.Join(names, " → ") + " → " + s.desc +
				" (" + filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line) + ")"
		}
		for _, to := range cur.calls {
			if !seen[to] && !to.effCertified() {
				seen[to] = true
				queue = append(queue, qent{node: to, prev: i})
			}
		}
	}
	return n.name + " → (source unreachable in graph)" // fixpoint/chain mismatch; should not happen
}

func (g *Graph) position(pos token.Pos) token.Position {
	pkgs := g.prog.Packages()
	if len(pkgs) > 0 {
		return pkgs[0].Fset.Position(pos)
	}
	return token.Position{}
}

// nodesOf returns the graph nodes declared in the package at path, in
// construction (source) order.
func (g *Graph) nodesOf(path string) []*Node {
	var out []*Node
	for _, n := range g.all {
		if n.Pkg.Path == path {
			out = append(out, n)
		}
	}
	return out
}

// EmitsAll reports whether fn transitively calls a fmt stream printer.
// detmap's map-range check consults this to make in-loop emission
// detection interprocedural.
func (g *Graph) EmitsAll(fn *types.Func) bool {
	if g == nil || fn == nil {
		return false
	}
	n, ok := g.byObj[origin(fn)]
	return ok && n.emitsAll
}

// TruncatedReturn reports whether fn (transitively, through bare
// return-call chains) returns an integer truncation of unrounded float
// arithmetic, with a human-readable chain to the truncating conversion.
// cycleint consults this to catch counters assigned from helper calls.
func (g *Graph) TruncatedReturn(fn *types.Func) (string, bool) {
	if g == nil || fn == nil {
		return "", false
	}
	n, ok := g.byObj[origin(fn)]
	if !ok || !n.truncAll {
		return "", false
	}
	var names []string
	seen := map[*Node]bool{}
	for n != nil && !seen[n] {
		seen[n] = true
		names = append(names, n.name)
		if n.truncDirect != nil {
			p := g.position(n.truncDirect.pos)
			return strings.Join(names, " → ") + " → " + n.truncDirect.desc +
				" (" + filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line) + ")", true
		}
		next := (*Node)(nil)
		for _, to := range n.returnCalls {
			if to.truncAll {
				next = to
				break
			}
		}
		n = next
	}
	return strings.Join(names, " → "), true
}

// For returns the (memoized) call graph of a program, or nil when prog is
// nil. Safe for concurrent use: igolint analyzes packages in parallel and
// every pass shares one graph per program.
func For(prog *loader.Program) *Graph {
	if prog == nil {
		return nil
	}
	graphMu.Lock()
	defer graphMu.Unlock()
	if g, ok := graphs[prog]; ok {
		return g
	}
	g := build(prog)
	graphs[prog] = g
	return g
}
