package dse

import "sort"

// simPoint is one simulated row's position in objective space: the three
// coordinates the dominance rule compares (lower cycles, lower traffic,
// higher reduction are better).
type simPoint struct {
	Index     int
	Cycles    int64
	Traffic   int64
	Reduction float64
}

// beats reports whether a weakly dominates b in the canonical order: no
// worse on all three objectives and either strictly better somewhere or
// lower-indexed. The index tie-break makes the "is a maximum" predicate a
// property of the simulated point *set* — identical-objective duplicates
// keep exactly the lowest-indexed representative — so the frontier archive
// is independent of insertion order. That is what makes wave-order runs and
// index-order checkpoint replays produce byte-identical pruning decisions.
func beats(a, b simPoint) bool {
	if a.Cycles > b.Cycles || a.Traffic > b.Traffic || a.Reduction < b.Reduction {
		return false
	}
	return a.Cycles < b.Cycles || a.Traffic < b.Traffic || a.Reduction > b.Reduction ||
		a.Index < b.Index
}

// frontier is the canonical archive of non-dominated simulated points,
// kept sorted by grid index.
type frontier struct {
	pts []simPoint
}

// Add inserts a simulated point, dropping it if beaten and evicting points
// it beats. The resulting archive equals the set of maxima over all points
// ever added, in index order, regardless of addition order.
func (f *frontier) Add(p simPoint) {
	// In-place filtering is safe to abandon at the early return: beats is
	// transitive and the archive holds mutually unbeaten points, so if some
	// q beats p, p cannot have beaten any earlier archive point (that point
	// would be beaten by q too) — nothing has been dropped yet and the
	// prefix was rewritten with its own values.
	keep := f.pts[:0]
	for _, q := range f.pts {
		if q.Index == p.Index || beats(q, p) {
			return // re-adding an archived point is a no-op (rows are deterministic)
		}
		if !beats(p, q) {
			keep = append(keep, q)
		}
	}
	f.pts = keep
	i := sort.Search(len(f.pts), func(k int) bool { return f.pts[k].Index >= p.Index })
	f.pts = append(f.pts, simPoint{})
	copy(f.pts[i+1:], f.pts[i:])
	f.pts[i] = p
}

// Dominates scans the archive in index order for the first simulated point
// that epsilon-dominates the candidate bounds: cycles and traffic within a
// (1+eps) relative relaxation of the candidate's lower bounds, reduction at
// least the candidate's cap minus epsRed. It returns the witness index, or
// -1.
//
// With eps = epsRed = 0 the rule is exactly conservative wherever the
// bounds hold: the witness is then certainly no worse than the candidate
// could possibly be on all three objectives, so pruning loses nothing.
// The cycle and traffic bounds are sound; the reduction cap is
// engineered, and points above it exist (ROADMAP.md, item 2), so exact
// mode is not proven exact. Nonzero epsilons trade exactness
// for pruning power — sound lower bounds sit strictly below simulated
// values on compute plateaus, so the exact rule almost never fires; the
// relaxed rule retains an epsilon-approximate Pareto set instead (see
// DESIGN.md section 3h).
func (f *frontier) Dominates(b Bounds, eps, epsRed float64) int {
	cyc := relax(b.Cycles, eps)
	traf := relax(b.Traffic, eps)
	red := b.RedCap - epsRed
	for _, q := range f.pts {
		if q.Cycles <= cyc && q.Traffic <= traf && q.Reduction >= red {
			return q.Index
		}
	}
	return -1
}

// relax scales a lower bound by (1+eps), saturating instead of overflowing.
func relax(v int64, eps float64) int64 {
	if eps <= 0 {
		return v
	}
	r := float64(v) * (1 + eps)
	if r >= 1<<62 {
		return 1 << 62
	}
	return int64(r)
}
