package schedule

import (
	"testing"

	"igosim/internal/tensor"
)

func TestClampChunk(t *testing.T) {
	cases := []struct {
		chunk, total, want int
	}{
		{-5, 7, 1}, // negative chunks degrade to one tile
		{0, 7, 1},  // zero is not a valid chunk
		{1, 7, 1},  // smallest legal chunk passes through
		{3, 7, 3},  // in-range chunks pass through
		{7, 7, 7},  // chunk == total is the single-chunk case
		{12, 7, 7}, // oversized chunks clamp to the whole grid
		{0, 1, 1},  // degenerate one-tile grid
		{99, 1, 1}, // oversized chunk on a one-tile grid
		{-1, 1, 1}, // negative chunk on a one-tile grid
	}
	for _, c := range cases {
		if got := clampChunk(c.chunk, c.total); got != c.want {
			t.Errorf("clampChunk(%d, %d) = %d, want %d", c.chunk, c.total, got, c.want)
		}
	}
}

// opMultiset counts order-free op identities: everything about an op except
// its stream position and its OutFirst/OutLast placement, which legitimately
// depend on the loop order.
func opMultiset(ops []Op) map[Op]int {
	m := make(map[Op]int, len(ops))
	for _, op := range ops {
		op.OutFirst, op.OutLast = false, false
		m[op]++
	}
	return m
}

func equalMultiset(a, b map[Op]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestPartialStationaryChunkExtremes drives all four chunked generators
// through every degenerate chunk size — negative, zero, one, the exact grid
// extent, and past it — and requires each resulting stream to (a) pass the
// full backward verifier when combined with its sibling gradient and (b) be
// a permutation of the unchunked baseline's op multiset: chunking may only
// reorder work, never add, drop or resize it.
func TestPartialStationaryChunkExtremes(t *testing.T) {
	// Dims chosen so every grid extent differs (mt=5, kt=4, nt=3) and edge
	// tiles exist in all three dimensions.
	p := testParams(tensor.Dims{M: 33, K: 22, N: 11}, Tiling{Tm: 7, Tk: 6, Tn: 4})
	mt, kt, nt := p.Tiling.Counts(p.Dims)

	baseDX := opMultiset(BaselineDX(p))
	baseDW := opMultiset(BaselineDW(p))

	gens := []struct {
		name  string
		total int // the grid extent this generator chunks over
		gen   func(TileParams, int) []Op
		base  map[Op]int
	}{
		{"PartialStationaryDX/rows", mt, PartialStationaryDX, baseDX},
		{"PartialStationaryDXCols", kt, PartialStationaryDXCols, baseDX},
		{"PartialStationaryDW/rows", kt, PartialStationaryDW, baseDW},
		{"PartialStationaryDWCols", nt, PartialStationaryDWCols, baseDW},
	}
	for _, g := range gens {
		for _, chunk := range []int{-1, 0, 1, g.total - 1, g.total, g.total + 5} {
			ops := g.gen(p, chunk)
			if len(ops) != mt*kt*nt {
				t.Errorf("%s chunk %d: %d ops, want %d", g.name, chunk, len(ops), mt*kt*nt)
				continue
			}
			if !equalMultiset(opMultiset(ops), g.base) {
				t.Errorf("%s chunk %d: op multiset differs from unchunked baseline", g.name, chunk)
			}
		}
	}

	// Combined dx+dw streams across mismatched chunk sizes, and the fused
	// majors, must still form a valid backward pass.
	for _, chunk := range []int{-1, 0, 1, 2, mt, kt, nt, mt + kt + nt} {
		for _, combo := range []struct {
			name string
			ops  []Op
		}{
			{"rows", append(PartialStationaryDX(p, chunk), PartialStationaryDW(p, chunk)...)},
			{"cols", append(PartialStationaryDXCols(p, chunk), PartialStationaryDWCols(p, chunk)...)},
			{"mixed", append(PartialStationaryDX(p, chunk), PartialStationaryDWCols(p, chunk)...)},
			{"dx-major", DXMajorOps(p, chunk)},
			{"dw-major", DWMajorOps(p, chunk)},
		} {
			if err := VerifyBackward(p, combo.ops, false); err != nil {
				t.Errorf("%s chunk %d: %v", combo.name, chunk, err)
			}
		}
	}
}

// TestPartialStationarySingleTileGrid pins the fully degenerate layer: a
// one-tile GEMM must come out of every chunked generator as exactly one op
// per gradient, marked both OutFirst and OutLast.
func TestPartialStationarySingleTileGrid(t *testing.T) {
	p := testParams(tensor.Dims{M: 3, K: 2, N: 5}, Tiling{Tm: 8, Tk: 8, Tn: 8})
	for _, chunk := range []int{-1, 0, 1, 9} {
		for name, ops := range map[string][]Op{
			"dx-rows": PartialStationaryDX(p, chunk),
			"dx-cols": PartialStationaryDXCols(p, chunk),
			"dw-rows": PartialStationaryDW(p, chunk),
			"dw-cols": PartialStationaryDWCols(p, chunk),
		} {
			if len(ops) != 1 {
				t.Fatalf("%s chunk %d: %d ops, want 1", name, chunk, len(ops))
			}
			if !ops[0].OutFirst || !ops[0].OutLast {
				t.Errorf("%s chunk %d: single op not both OutFirst and OutLast: %+v", name, chunk, ops[0])
			}
		}
	}
}
