// Package analysis is a self-contained miniature of golang.org/x/tools'
// go/analysis framework: an Analyzer runs over one type-checked package and
// reports position-tagged diagnostics. The repo vendors no third-party
// code, so igolint's analyzers build against this stdlib-only mirror; the
// API intentionally matches go/analysis closely enough that migrating to
// the real framework is a mechanical import swap.
//
// # Marker suppression
//
// A diagnostic is suppressed when the flagged line — or the line directly
// above it — carries a `//lint:<analyzer>` marker comment (for example
// `//lint:detmap fixture demonstrating the escape hatch`). Analyzers that
// guard hard invariants can set Diagnostic.Unsuppressable to make a
// finding immune to markers.
//
// Suppression markers are themselves checked: a `//lint:<analyzer>` comment
// naming an analyzer in the run that suppresses no diagnostic is reported
// as stale (analyzer name "stalemarker"), so certifications and escape
// hatches cannot outlive the code they were written for. Annotation markers
// (`//lint:hotpath`, `//lint:sink`, `//lint:walldomain`, `//lint:registered`)
// use names outside the analyzer roster and are exempt.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"igosim/internal/lint/loader"
)

// ModulePath is the import-path prefix of the module under analysis.
// Package scoping rules (wallclock's forbidden list, detflow's cycle
// domain) anchor to it so that a package in some other tree whose path
// merely ends in the same suffix can never match.
const ModulePath = "igosim"

// InModule reports whether path names the module package with the given
// module-relative path (e.g. entry "internal/sim" matches exactly
// "igosim/internal/sim", and — for fixture trees that mimic the module
// layout without the prefix — "internal/sim" itself). Unlike a suffix
// match, "othermod/internal/sim" and "igosim/internal/xsim" never match.
func InModule(path, entry string) bool {
	return path == entry || path == ModulePath+"/"+entry
}

// InModuleAny reports whether path matches any of the module-relative
// entries under the InModule rule.
func InModuleAny(path string, entries []string) bool {
	for _, e := range entries {
		if InModule(path, e) {
			return true
		}
	}
	return false
}

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and in `//lint:<name>`
	// suppression markers. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph description shown by `igolint -list`.
	Doc string

	// Run applies the check to one package via the Pass.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an Analyzer,
// plus the whole-program view for interprocedural checks.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog is the loader's whole-program snapshot: every in-root package,
	// fully type-checked. Interprocedural analyzers (detflow, and the
	// transitive halves of detmap/cycleint/ctrreg) consult it; it may be
	// nil in bare single-package runs, which disables those halves.
	Prog *loader.Program

	// Report delivers one diagnostic. Analyzers usually call Reportf.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding inside the package being analyzed.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// Unsuppressable findings ignore `//lint:<name>` markers: the analyzer
	// considers the invariant too load-bearing for an escape hatch.
	Unsuppressable bool
}

// Finding is a resolved diagnostic: position mapped through the file set
// and tagged with the analyzer that produced it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Run applies every analyzer to one type-checked package and returns the
// surviving findings sorted by position. Marker suppression (see the
// package comment) is applied here so every analyzer honours the same
// escape hatch without reimplementing it, and markers that suppressed
// nothing across the whole run are reported stale.
func Run(pkg *loader.Package, prog *loader.Program, analyzers []*Analyzer) ([]Finding, error) {
	fset := pkg.Fset
	markers := collectMarkers(fset, pkg.Files)
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Prog:      prog,
		}
		pass.Report = func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			if !d.Unsuppressable && markers.suppress(a.Name, pos) {
				return
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	// Stale-marker check: a suppression comment naming an analyzer that ran
	// here but silenced nothing is dead weight — and, worse, false
	// documentation that a finding exists. Unsuppressable by construction:
	// the fix is deleting the marker, not marking the marker.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, m := range markers.stale(ran) {
		findings = append(findings, Finding{
			Analyzer: "stalemarker",
			Pos:      fset.Position(m.pos),
			Message:  fmt.Sprintf("stale //lint:%s marker: it suppresses no %s diagnostic; delete it", m.name, m.name),
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// marker is one `//lint:<name>` comment, tracked so unused suppressions
// can be reported stale.
type marker struct {
	name string
	pos  token.Pos
	used bool
}

// markerIndex records which analyzers are marker-suppressed on which lines.
type markerIndex struct {
	byLine map[string]map[int][]*marker // filename -> line -> markers
	all    []*marker                    // in source order
}

// suppress reports whether a marker for analyzer covers pos, recording the
// marker as used when it does.
func (m *markerIndex) suppress(analyzer string, pos token.Position) bool {
	lines := m.byLine[pos.Filename]
	hit := false
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, mk := range lines[line] {
			if mk.name == analyzer {
				mk.used = true
				hit = true
			}
		}
	}
	return hit
}

// stale returns, in source order, every unused marker whose name is in the
// ran set. Names outside the set are annotations (hotpath, sink,
// walldomain, registered) or target analyzers not in this run; neither is
// this run's business.
func (m *markerIndex) stale(ran map[string]bool) []*marker {
	var out []*marker
	for _, mk := range m.all {
		if !mk.used && ran[mk.name] {
			out = append(out, mk)
		}
	}
	return out
}

// collectMarkers indexes every `//lint:<name>` comment by file and line.
func collectMarkers(fset *token.FileSet, files []*ast.File) *markerIndex {
	idx := &markerIndex{byLine: make(map[string]map[int][]*marker)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "lint:") {
					continue
				}
				name := strings.TrimPrefix(text, "lint:")
				if i := strings.IndexAny(name, " \t"); i >= 0 {
					name = name[:i]
				}
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				if idx.byLine[pos.Filename] == nil {
					idx.byLine[pos.Filename] = make(map[int][]*marker)
				}
				mk := &marker{name: name, pos: c.Pos()}
				idx.byLine[pos.Filename][pos.Line] = append(idx.byLine[pos.Filename][pos.Line], mk)
				idx.all = append(idx.all, mk)
			}
		}
	}
	return idx
}
