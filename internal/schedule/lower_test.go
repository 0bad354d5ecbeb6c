package schedule

import (
	"reflect"
	"testing"

	"igosim/internal/dram"
	"igosim/internal/tensor"
)

// lowerOps is the reference lowering: every op through lower, which builds
// and interns A, B and Out per op.
func lowerOps(c *compiler, dst []CompiledOp, ops []Op) []CompiledOp {
	for i := range ops {
		dst = append(dst, c.lower(&ops[i]))
	}
	return dst
}

// lowerCases are the plans the per-grid lowering is checked on, each a
// list of parts lowered through one compiler: edge tiles on every axis,
// X factors of 0.3 and 0.5, partial dX and dW outputs, non-zero offsets,
// layer and part, and two K-split parts that share every dY tile.
func lowerCases() []lowerCase {
	tl := Tiling{Tm: 4, Tk: 3, Tn: 5}
	edges := testParams(tensor.Dims{M: 14, K: 11, N: 13}, tl)
	x3 := edges
	x3.XFactor = 0.3
	x5 := testParams(tensor.Dims{M: 9, K: 7, N: 12}, tl)
	x5.XFactor = 0.5
	dxPart := testParams(tensor.Dims{M: 10, K: 8, N: 9}, tl)
	dxPart.Layer, dxPart.Part, dxPart.DXPartial = 6, 3, true
	dxPart.OffM, dxPart.OffK, dxPart.OffN = 2, 1, 3
	dwPart := testParams(tensor.Dims{M: 11, K: 9, N: 7}, tl)
	dwPart.Layer, dwPart.Part, dwPart.DWPartial = 9, 1, true
	dwPart.OffM, dwPart.XFactor = 4, 0.5
	k0 := testParams(tensor.Dims{M: 13, K: 6, N: 11}, tl)
	k1 := k0
	k1.Dims.K, k1.OffK, k1.Part = 5, 2, 1
	m0 := testParams(tensor.Dims{M: 8, K: 10, N: 9}, tl)
	m0.DWPartial = true
	m1 := m0
	m1.Dims.M, m1.OffM, m1.Part = 7, 2, 1
	return []lowerCase{
		{"edges", []TileParams{edges}},
		{"xfactor-0.3", []TileParams{x3}},
		{"xfactor-0.5", []TileParams{x5}},
		{"dx-partial", []TileParams{dxPart}},
		{"dw-partial", []TileParams{dwPart}},
		{"k-split-shared", []TileParams{k0, k1}},
		{"m-split", []TileParams{m0, m1}},
	}
}

type lowerCase struct {
	name  string
	parts []TileParams
}

// TestLowerMatchesEmitters holds LowerShapes, backward and forward, to
// lowering the emitters' ops one by one through one compiler: the same
// code, op for op, and the same tile count; and holds the grid lowering's
// keys to the reference's, so every TileID agrees. One compiler lowers
// every case in turn after a reset, so per-grid state left from an
// earlier grid would show.
func TestLowerMatchesEmitters(t *testing.T) {
	pooled := newCompiler()
	for _, lc := range lowerCases() {
		name, parts := lc.name, lc.parts
		for _, forward := range []bool{false, true} {
			pass := name + "/backward"
			if forward {
				pass = name + "/forward"
			}
			ref := newCompiler()
			var want []CompiledOp
			for _, p := range parts {
				if forward {
					want = lowerOps(ref, want, Forward(p).Ops)
				} else {
					want = lowerOps(ref, want, BaselineDXOrdered(p, DXOrderMK))
					want = lowerOps(ref, want, BaselineDWOrdered(p, DWOrderKN))
				}
			}
			pooled.reset()
			var got []CompiledOp
			for i := range parts {
				got = pooled.lowerShape(got, &parts[i], forward)
			}
			checkLowered(t, pass, got, want, pooled.keys, ref.keys)
			code, tiles := LowerShapes(nil, forward, parts...)
			checkLowered(t, pass+"/LowerShapes", code, want, nil, nil)
			if tiles != len(ref.keys) {
				t.Errorf("%s/LowerShapes: %d tiles, want %d", pass, tiles, len(ref.keys))
			}
		}
	}
}

// checkLowered compares got with want op for op, and the key tables
// gotKeys and wantKeys.
func checkLowered(t *testing.T, name string, got, want []CompiledOp, gotKeys, wantKeys []TileKey) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d ops, want %d", name, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: op %d = %+v, want %+v", name, i, got[i], want[i])
			return
		}
	}
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Errorf("%s: tile keys differ from the emitters' (%d vs %d keys)", name, len(gotKeys), len(wantKeys))
	}
}

// TestLowerSharesTilesAcrossParts checks that the k-split case does share
// its dY tiles: the second part's dX ops read dY IDs the first part
// interned, so TestLowerMatchesEmitters covers tiles shared across grids.
func TestLowerSharesTilesAcrossParts(t *testing.T) {
	parts := lowerCases()[5].parts
	c := newCompiler()
	code := c.lowerShape(nil, &parts[0], false)
	seen := len(c.keys)
	code = c.lowerShape(code, &parts[1], false)
	second := code[2*parts[0].OpCount():]
	for _, op := range second {
		if op.AClass == dram.ClassDY && int(op.A) >= seen {
			t.Fatalf("second part's dY tile %d is new, want one of the first part's %d", op.A, seen)
		}
	}
}
