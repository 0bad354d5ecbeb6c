// Package hotalloc polices the compiled execution path's zero-alloc
// contract (DESIGN.md §3g). Functions whose doc comment carries a
// `//lint:hotpath` marker run once per simulated op — the residency-table
// methods, CompiledEngine.step, the interner probe — and the engine's speed
// comes precisely from doing no map lookups and no heap allocations there. The analyzer flags, inside marked functions (and any
// closures they contain):
//
//   - map index expressions, reads and writes alike — hot-path state is
//     interned to dense IDs and indexed through slices;
//   - allocation expressions: make, new, slice and map literals, and
//     &T{} composite-literal pointers.
//
// Amortized growth through append into a reused buffer is deliberately not
// flagged (the pooled buffers rely on it), and neither are calls like the
// fmt.Sprintf inside panic messages — the check targets expressions that
// allocate on the happy path every op. A finding on a measured-cold line is
// suppressed with a `//lint:hotalloc <reason>` marker.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"igosim/internal/lint/analysis"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags map indexing and allocation expressions (make/new/slice/map/&T{} literals) " +
		"inside functions marked //lint:hotpath",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotPath(fn.Doc) {
				continue
			}
			checkBody(pass, fn)
		}
	}
	return nil
}

// isHotPath reports whether the function's doc comment carries the marker.
func isHotPath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, "lint:hotpath") {
			return true
		}
	}
	return false
}

// checkBody walks one marked function, including nested closures: a closure
// defined in a hot function runs on the same per-op path.
func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.IndexExpr:
			if t := pass.TypesInfo.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(v.Pos(), "map index in hot-path function %s; intern to a dense ID and index a slice instead", name)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
					pass.Reportf(v.Pos(), "allocation (%s) in hot-path function %s; allocate in setup and reuse", b.Name(), name)
				}
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					pass.Reportf(v.Pos(), "allocation (composite-literal pointer) in hot-path function %s; allocate in setup and reuse", name)
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypesInfo.TypeOf(v); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(v.Pos(), "allocation (%s literal) in hot-path function %s; allocate in setup and reuse", kindName(t), name)
				}
			}
		}
		return true
	})
}

func kindName(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}
