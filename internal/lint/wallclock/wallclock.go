// Package wallclock forbids wall-clock reads (time.Now, time.Since,
// time.Sleep) and math/rand in the simulator's cycle-accounting packages.
// Simulated time advances only by integer cycle arithmetic; a wall-clock
// read or RNG draw in internal/sim, internal/core, internal/schedule,
// internal/dram, internal/energy, internal/refmodel, internal/proptest or
// internal/dse would make results vary run to run and
// break the byte-identical golden figures (proptest's deterministic
// splitmix64 source exists precisely so the property suite never needs
// math/rand). Findings here are unsuppressable.
//
// This analyzer is the fast, syntactic first line: it flags direct call
// sites inside the cycle domain. The interprocedural half — nondeterminism
// reached through helper calls, and the per-function //lint:walldomain
// certifications that wall-domain packages (runner, trace, cmd/*) use to
// document legitimate clock reads — lives in the detflow analyzer. There
// is no package allowlist: a package is either cycle-accounting (listed
// here and in detflow's cycle domain) or its functions certify each
// wall-clock use individually.
//
// Package matching anchors to the module path: "igosim/internal/sim"
// matches, a hypothetical "othermod/internal/sim" or "igosim/internal/
// xsim" never does. (Fixture trees that mimic the module layout without
// the prefix match by the bare relative path.)
package wallclock

import (
	"go/ast"
	"go/types"
	"strings"

	"igosim/internal/lint/analysis"
)

// Analyzer is the wallclock check.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbids time.Now/Since/Sleep and math/rand call sites in cycle-accounting " +
		"packages (unsuppressable); detflow proves the transitive closure",
	Run: run,
}

// forbidden packages account simulated cycles; wall-clock reads there are
// never legitimate, so markers cannot suppress them. internal/serve is
// listed although it is not cycle-accounting: its response bodies must be
// pure functions of the request, so all clock reads of the serving stack
// are pushed out to cmd/igoserved and the loadtest harness — timeouts
// reach serve only as time.Duration values.
var forbidden = []string{
	"internal/sim", "internal/core",
	"internal/schedule", "internal/dram", "internal/energy",
	"internal/refmodel", "internal/proptest", "internal/dse",
	"internal/serve",
}

// clockFuncs are the time functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Sleep": true}

func run(pass *analysis.Pass) error {
	if !analysis.InModuleAny(pass.Pkg.Path(), forbidden) {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Report(analysis.Diagnostic{
					Pos:            imp.Pos(),
					Message:        "math/rand imported in a cycle-accounting package; simulated behaviour must be deterministic",
					Unsuppressable: true,
				})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" || !clockFuncs[obj.Name()] {
				return true
			}
			pass.Report(analysis.Diagnostic{
				Pos: sel.Pos(),
				Message: "wall-clock read time." + obj.Name() +
					" in a cycle-accounting package; cycles advance only by integer arithmetic",
				Unsuppressable: true,
			})
			return true
		})
	}
	return nil
}
