package proptest

// Shrink greedily minimises a failing case: it tries one simplification at
// a time — halving dimensions and tiles toward 1, zeroing chunk and
// latency, collapsing partitions, narrowing elements, dropping the im2col
// factor, trimming scratchpad slack — and keeps any move that still fails
// the predicate. The result is a local minimum: no single move both keeps
// the case failing and makes it simpler. budget caps predicate evaluations
// so a slow check cannot stall a test run.
func Shrink(c Case, fails func(Case) bool, budget int) Case {
	for budget > 0 {
		improved := false
		for _, cand := range moves(c) {
			if budget <= 0 {
				break
			}
			budget--
			if fails(cand) {
				c = cand
				improved = true
				break
			}
		}
		if !improved {
			return c
		}
	}
	return c
}

// halve moves v toward 1 (or toward lo) quickly first, then by one.
func halve(v, lo int) (int, bool) {
	if v <= lo {
		return v, false
	}
	if h := (v + lo) / 2; h < v {
		return h, true
	}
	return v - 1, true
}

// moves returns the candidate simplifications of c, simplest-first. Every
// candidate is renormalised so the shrinker can never leave the valid case
// space.
func moves(c Case) []Case {
	var out []Case
	add := func(m Case) { out = append(out, m.normalize()) }

	for _, f := range []func(*Case) bool{
		func(m *Case) bool { v, ok := halve(m.Dims.M, 1); m.Dims.M = v; return ok },
		func(m *Case) bool { v, ok := halve(m.Dims.K, 1); m.Dims.K = v; return ok },
		func(m *Case) bool { v, ok := halve(m.Dims.N, 1); m.Dims.N = v; return ok },
		func(m *Case) bool { v, ok := halve(m.Tiling.Tm, 1); m.Tiling.Tm = v; return ok },
		func(m *Case) bool { v, ok := halve(m.Tiling.Tk, 1); m.Tiling.Tk = v; return ok },
		func(m *Case) bool { v, ok := halve(m.Tiling.Tn, 1); m.Tiling.Tn = v; return ok },
		func(m *Case) bool { v, ok := halve(m.Parts, 1); m.Parts = v; return ok },
		func(m *Case) bool { v, ok := halve(m.Cores, 1); m.Cores = v; return ok },
		func(m *Case) bool { v, ok := halve(m.Phases, 1); m.Phases = v; return ok },
		func(m *Case) bool { v, ok := halve(m.Chunk, 0); m.Chunk = v; return ok },
		func(m *Case) bool { v, ok := halve(m.ElemBytes, 1); m.ElemBytes = v; return ok },
		func(m *Case) bool { v, ok := halve(m.ArrayRows, 1); m.ArrayRows = v; return ok },
		func(m *Case) bool { v, ok := halve(m.ArrayCols, 1); m.ArrayCols = v; return ok },
		func(m *Case) bool { v, ok := halve(m.BandBPC, 1); m.BandBPC = v; return ok },
		func(m *Case) bool { v, ok := halve(int(m.Latency), 0); m.Latency = int64(v); return ok },
		func(m *Case) bool { v, ok := halve(m.SPMFactor, 3); m.SPMFactor = v; return ok },
		func(m *Case) bool { v, ok := halve(int(m.SPMExtra), 0); m.SPMExtra = int64(v); return ok },
		func(m *Case) bool {
			if m.XFactor == 0 {
				return false
			}
			m.XFactor = 0
			return true
		},
		func(m *Case) bool {
			if !m.WeightStationary {
				return false
			}
			m.WeightStationary = false
			return true
		},
		func(m *Case) bool {
			// Simplify the schedule variant toward the plain baseline.
			if m.Variant == VariantBaseline {
				return false
			}
			m.Variant = VariantBaseline
			return true
		},
	} {
		m := c
		if f(&m) {
			add(m)
		}
	}
	return out
}
