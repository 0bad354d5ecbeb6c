package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"igosim/internal/config"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/trace"
)

// shapeCodeCfg sizes the chunked majors of shapeCodeParams strictly
// between one tile-row (or -column) and the whole grid, so a chunk that is
// off by one changes the order.
func shapeCodeCfg() config.NPU {
	cfg := tinyCfg()
	cfg.SPMBytes = 16 << 10
	return cfg
}

// shapeCodeParams are the shapes every shape-code program is checked on:
// edge tiles on every axis, an im2col X factor below one, partial dX and
// dW outputs, and non-zero layer, part and tile-grid offsets.
func shapeCodeParams() []schedule.TileParams {
	tl := schedule.Tiling{Tm: 4, Tk: 4, Tn: 4}
	plain := testParams(tensor.Dims{M: 38, K: 26, N: 22}, tl)
	conv := testParams(tensor.Dims{M: 30, K: 22, N: 21}, tl)
	conv.XFactor = 0.3
	dxPart := testParams(tensor.Dims{M: 21, K: 30, N: 26}, tl)
	dxPart.Layer, dxPart.Part, dxPart.DXPartial = 5, 3, true
	dxPart.OffM, dxPart.OffK, dxPart.OffN = 2, 1, 3
	dwPart := testParams(tensor.Dims{M: 26, K: 27, N: 18}, tl)
	dwPart.Layer, dwPart.Part, dwPart.DWPartial = 9, 1, true
	dwPart.OffM, dwPart.XFactor = 4, 0.5
	return []schedule.TileParams{plain, conv, dxPart, dwPart}
}

// BackwardKernels emits the backward-pass kernels for the non-partitioned
// policies. The baseline returns its two gradient GEMMs as separate kernels
// (the scratchpad is flushed between kernels, so dY cannot be reused across
// them); the fused policies return a single kernel. skipDX marks the
// network's first layer, which has no upstream to propagate into: only dW
// is computed and interleaving does not apply (Section 6.2). Simulated runs
// build the same kernels as an order over the plan's shape code
// (planProgram); this emitted form is the reference the tests hold every
// such program to.
func BackwardKernels(cfg config.NPU, p schedule.TileParams, pol Policy, skipDX bool) ([]schedule.Schedule, Order) {
	if skipDX {
		return []schedule.Schedule{TunedDWOnly(cfg, p)}, OnlyInterleave
	}
	switch pol {
	case PolBaseline:
		dxK, dwK := TunedBaselineKernels(cfg, p)
		return []schedule.Schedule{dxK, dwK}, OnlyInterleave
	case PolInterleave:
		return []schedule.Schedule{TunedInterleave(cfg, p)}, OnlyInterleave
	default: // PolRearrange and above
		sched, o := RearrangedTuned(cfg, p)
		return []schedule.Schedule{sched}, o
	}
}

// ConcatKernels joins kernels into one schedule (no flush between them) —
// the emitted form of RunFusedSequential's program, the reference the
// tests hold it to.
func ConcatKernels(kernels ...schedule.Schedule) schedule.Schedule {
	var ops []schedule.Op
	for _, k := range kernels {
		ops = append(ops, k.Ops...)
	}
	return schedule.Schedule{Name: "fused-sequential", Ops: ops}
}

// keyed is a program with the tile keys its TileIDs stand for: keys[id]
// is the key interned as id.
type keyed struct {
	prog *schedule.Program
	keys []schedule.TileKey
}

// tileKeys interns the tiles of streams in first-appearance order, the way
// lowering numbers them: A, B and Out of each op in turn.
func tileKeys(streams ...[]schedule.Op) []schedule.TileKey {
	seen := map[schedule.TileKey]bool{}
	var keys []schedule.TileKey
	for _, ops := range streams {
		for _, op := range ops {
			for _, k := range [...]schedule.TileKey{op.A.Key, op.B.Key, op.Out.Key} {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	return keys
}

// shapeKeys are the keys of lowerShapes(parts...)'s code: the parts'
// canonical dX-MK and dW-KN streams, interned in order.
// TestLowerMatchesEmitters ties the grid lowering to these streams.
func shapeKeys(parts ...schedule.TileParams) []schedule.TileKey {
	var streams [][]schedule.Op
	for _, p := range parts {
		streams = append(streams, schedule.BaselineDXOrdered(p, schedule.DXOrderMK), schedule.BaselineDWOrdered(p, schedule.DWOrderKN))
	}
	return tileKeys(streams...)
}

// compiled lowers scheds with sim.CompileSchedules, keyed by their ops.
func compiled(scheds ...schedule.Schedule) keyed {
	streams := make([][]schedule.Op, len(scheds))
	for i, s := range scheds {
		streams[i] = s.Ops
	}
	return keyed{sim.CompileSchedules(scheds...), tileKeys(streams...)}
}

// sameProgram reports the first difference between got, a shape-code
// program, and want, the emitted schedules lowered through one compiler:
// tile count, op count, kernel bounds, names and cores, and op by op the
// tiles (through each side's keys), bytes, classes, tile dimensions, kind
// and flags.
func sameProgram(got, want keyed) error {
	if got.prog.Tiles != len(got.keys) || want.prog.Tiles != len(want.keys) {
		return fmt.Errorf("%d and %d tiles, want %d and %d", got.prog.Tiles, want.prog.Tiles, len(got.keys), len(want.keys))
	}
	if got.prog.Ops() != want.prog.Ops() {
		return fmt.Errorf("%d ops, want %d", got.prog.Ops(), want.prog.Ops())
	}
	if len(got.prog.Kernels) != len(want.prog.Kernels) {
		return fmt.Errorf("%d kernels, want %d", len(got.prog.Kernels), len(want.prog.Kernels))
	}
	for i, k := range want.prog.Kernels {
		if got.prog.Kernels[i] != k {
			return fmt.Errorf("kernel %d is %+v, want %+v", i, got.prog.Kernels[i], k)
		}
	}
	gk, wk := got.keys, want.keys
	for i := range want.prog.Code {
		j := int32(i)
		if got.prog.Order != nil {
			j = got.prog.Order[i]
		}
		a, b := got.prog.Code[j], want.prog.Code[i]
		if gk[a.A] != wk[b.A] || gk[a.B] != wk[b.B] || gk[a.Out] != wk[b.Out] {
			return fmt.Errorf("op %d tiles (%v, %v -> %v), want (%v, %v -> %v)",
				i, gk[a.A], gk[a.B], gk[a.Out], wk[b.A], wk[b.B], wk[b.Out])
		}
		a.A, a.B, a.Out = 0, 0, 0
		b.A, b.B, b.Out = 0, 0, 0
		if a != b {
			return fmt.Errorf("op %d is %+v, want %+v (tile ids blanked)", i, a, b)
		}
	}
	return nil
}

// partPhases transposes per-part kernels into the phases a multi-core
// plan runs: kernel k of part i is phase k's stream on core i.
func partPhases(parts [][]schedule.Schedule) [][][]schedule.Op {
	phases := make([][][]schedule.Op, len(parts[0]))
	for k := range phases {
		phases[k] = make([][]schedule.Op, len(parts))
		for i, kernels := range parts {
			phases[k][i] = kernels[k].Ops
		}
	}
	return phases
}

// multiProgram lowers per-part kernels phase by phase (partPhases) with
// sim.CompilePhases, names each kernel after its schedule, and keys it by
// its streams in that order.
func multiProgram(parts [][]schedule.Schedule) keyed {
	phases := partPhases(parts)
	var streams [][]schedule.Op
	for _, ph := range phases {
		streams = append(streams, ph...)
	}
	prog := sim.CompilePhases(phases)
	for j := range prog.Kernels {
		prog.Kernels[j].Name = parts[j%len(parts)][j/len(parts)].Name
	}
	return keyed{prog, tileKeys(streams...)}
}

// layerProgram builds the program of p run whole, as one part running
// kernels.
func layerProgram(p schedule.TileParams, kernels partKernels) *schedule.Program {
	return planProgram([]schedule.TileParams{p}, []partKernels{kernels}, false)
}

// TestShapeCodePrograms holds every program built over a shape code to
// the schedules the Op emitters produce for it, lowered through one
// compiler: the tuners' baseline, merge and major family members, the
// layer programs of every policy (dW-only included, and the rearranged
// program under each order), the fused-sequential pair, every single-core
// partitioned plan's program, every multi-core plan's program against
// BackwardKernels phase by phase, and the forward programs on one and two
// cores. A family member and the one-part plan of the same recipe must be
// one program: equal orders and kernels.
func TestShapeCodePrograms(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	cfg := shapeCodeCfg()
	for _, p := range shapeCodeParams() {
		mt, _, nt := p.Tiling.Counts(p.Dims)
		if c := dxMajorChunk(cfg, p); c <= 1 || c >= mt {
			t.Fatalf("%v: dXmajor chunk %d not strictly inside (1, %d)", p.Dims, c, mt)
		}
		if c := dwMajorChunk(cfg, p); c <= 1 || c >= nt {
			t.Fatalf("%v: dWmajor chunk %d not strictly inside (1, %d)", p.Dims, c, nt)
		}
		keys := shapeKeys(p)
		check := func(what string, got *schedule.Program, want ...schedule.Schedule) {
			t.Helper()
			if err := sameProgram(keyed{got, keys}, compiled(want...)); err != nil {
				t.Errorf("%v %s: %v", p.Dims, what, err)
			}
		}

		dxs, dws := dxCandidates(p), dwCandidates(p)
		vs := mergeCandidates(p)
		families := []struct {
			name    string
			kernels []recipe
			want    func(i int) schedule.Schedule
		}{
			{"baseline", baselineFamily(dxs, dws), func(i int) schedule.Schedule {
				if i < len(dxs) {
					return schedule.Schedule{Name: "baseline-dX", Ops: baselineDXOps(p, dxs[i])}
				}
				return schedule.Schedule{Name: "baseline-dW", Ops: baselineDWOps(p, dws[i-len(dxs)])}
			}},
			{"merge", vs, func(i int) schedule.Schedule {
				v := vs[i]
				return schedule.Schedule{Name: "interleave", Ops: mergeStreams(nil, baselineDXOps(p, v.dx), baselineDWOps(p, v.dw), int(v.block))}
			}},
			{"major", majorFamily(cfg, p), func(i int) schedule.Schedule {
				return [...]schedule.Schedule{FusedDXMajor(cfg, p), FusedDWMajor(cfg, p)}[i]
			}},
		}
		for _, f := range families {
			member := familyMembers(p, f.kernels)
			for i, r := range f.kernels {
				got := member.build(i)
				check(fmt.Sprintf("%s member %+v", f.name, r), got, f.want(i))
				plan := layerProgram(p, partKernels{r})
				if !slices.Equal(plan.Order, got.Order) || !slices.Equal(plan.Kernels, got.Kernels) {
					t.Errorf("%v %s member %+v: the one-part plan of its recipe is another program", p.Dims, f.name, r)
				}
			}
		}

		for _, pol := range []Policy{PolBaseline, PolInterleave, PolRearrange} {
			for _, skipDX := range []bool{false, true} {
				kernels, _ := BackwardKernels(cfg, p, pol, skipDX)
				check(fmt.Sprintf("layer %v skipDX=%v", pol, skipDX), layerProgram(p, tunedChoices(cfg, []schedule.TileParams{p}, pol, skipDX)[0]), kernels...)
			}
		}
		for _, o := range Orders() {
			sched, _ := RearrangedWithOrder(cfg, p, o)
			check(fmt.Sprintf("rearranged %v", o), layerProgram(p, partKernels{orderRecipe(cfg, p, o)}), sched)
		}
		dxK, dwK := TunedBaselineKernels(cfg, p)
		v := baselineChoices(cfg, p)
		check("fused-sequential", layerProgram(p, partKernels{{kind: kFusedSequential, dx: v.dx, dw: v.dw}}), ConcatKernels(dxK, dwK))

		for _, scheme := range Schemes() {
			for _, parts := range []int{2, 4} {
				plan := PartitionLayer(p, scheme, parts)
				scheds := make([]schedule.Schedule, len(plan.Parts))
				for i, sub := range plan.Parts {
					scheds[i], _ = RearrangedTuned(cfg, sub)
				}
				got := keyed{planProgram(plan.Parts, tunedChoices(cfg, plan.Parts, PolRearrange, false), false), shapeKeys(plan.Parts...)}
				if err := sameProgram(got, compiled(scheds...)); err != nil {
					t.Errorf("%v plan %v x%d: %v", p.Dims, scheme, parts, err)
				}
				multiPlans(t, cfg.WithCores(parts), p, plan)
			}
		}

		for _, cores := range []int{1, 2} {
			parts := []schedule.TileParams{p}
			if cores > 1 {
				parts = PartitionLayer(p, WeightSharing, cores).Parts
			}
			kernels := make([][]schedule.Schedule, len(parts))
			streams := make([][]schedule.Op, len(parts))
			for i := range parts {
				parts[i].DWPartial = false
				kernels[i] = []schedule.Schedule{schedule.Forward(parts[i])}
				streams[i] = kernels[i][0].Ops
			}
			got := keyed{forwardProgram(parts, cores > 1), tileKeys(streams...)}
			if err := sameProgram(got, multiProgram(kernels)); err != nil {
				t.Errorf("%v forward on %d cores: %v", p.Dims, cores, err)
			}
		}
	}
}

// TestFamiliesHoldDistinctPrograms holds the tuner families to their
// candidate sets being distinct by construction, on digestParams' grids
// plus grids with one tile along M, K or N, and along both M and K: no two
// members of a family have equal orders and kernels, and every candidate
// of the full positional space a family leaves out (both orders of each
// GEMM; every dX order with every dW order at every alternating block) is
// a kept member's walk, op for op, in the shape code and in the Op
// emitters alike.
func TestFamiliesHoldDistinctPrograms(t *testing.T) {
	cfg := shapeCodeCfg()
	tl := schedule.Tiling{Tm: 4, Tk: 4, Tn: 4}
	ps := append(digestParams(),
		testParams(tensor.Dims{M: 3, K: 26, N: 22}, tl),
		testParams(tensor.Dims{M: 38, K: 4, N: 22}, tl),
		testParams(tensor.Dims{M: 38, K: 26, N: 3}, tl),
		testParams(tensor.Dims{M: 3, K: 4, N: 22}, tl),
	)
	dropped := 0
	for _, p := range ps {
		dxs, dws, vs := dxCandidates(p), dwCandidates(p), mergeCandidates(p)
		families := []struct {
			name   string
			n      int
			member func(int) *schedule.Program
		}{
			{"baseline", len(dxs) + len(dws), familyMembers(p, baselineFamily(dxs, dws)).build},
			{"merge", len(vs), familyMembers(p, vs).build},
			{"major", 2, familyMembers(p, majorFamily(cfg, p)).build},
		}
		for _, f := range families {
			var kept []*schedule.Program
			for i := range f.n {
				prog := f.member(i)
				for j, k := range kept {
					if slices.Equal(k.Order, prog.Order) && slices.Equal(k.Kernels, prog.Kernels) {
						t.Errorf("%v %s family: members %d and %d are one program", p.Dims, f.name, j, i)
					}
				}
				kept = append(kept, prog)
			}
		}

		g := lowerShapes(p).grids[0]
		for _, c := range dxOrders {
			if !slices.Contains(dxs, c) {
				dropped++
				k := dxs[0]
				if !slices.Equal(g.appendDX(nil, c), g.appendDX(nil, k)) || !reflect.DeepEqual(baselineDXOps(p, c), baselineDXOps(p, k)) {
					t.Errorf("%v: dropped dX order %d is not kept order %d's walk", p.Dims, c, k)
				}
			}
		}
		for _, c := range dwOrders {
			if !slices.Contains(dws, c) {
				dropped++
				k := dws[0]
				if !slices.Equal(g.appendDW(nil, c), g.appendDW(nil, k)) || !reflect.DeepEqual(baselineDWOps(p, c), baselineDWOps(p, k)) {
					t.Errorf("%v: dropped dW order %d is not kept order %d's walk", p.Dims, c, k)
				}
			}
		}
		for _, dc := range dxOrders {
			for _, wc := range dwOrders {
				for _, blk := range interleaveBlocks {
					if blk > 1 && blk >= p.OpCount() {
						continue
					}
					v := recipe{kind: kInterleave, dx: dc, dw: wc, block: uint8(blk)}
					order := layerProgram(p, partKernels{v}).Order
					if !slices.ContainsFunc(vs, func(k recipe) bool {
						return slices.Equal(order, layerProgram(p, partKernels{k}).Order)
					}) {
						t.Errorf("%v: merge %+v is no kept member's walk", p.Dims, v)
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no grid drops a candidate: the test checks nothing")
	}
}

// multiPlans holds every multi-core program of plan — under the baseline,
// interleave and rearrange policies, with and without dX — to
// BackwardKernels of each part, lowered phase by phase.
func multiPlans(t *testing.T, cfg config.NPU, p schedule.TileParams, plan Plan) {
	t.Helper()
	for _, pol := range []Policy{PolBaseline, PolInterleave, PolRearrange} {
		for _, skipDX := range []bool{false, true} {
			kernels := make([][]schedule.Schedule, len(plan.Parts))
			for i, sub := range plan.Parts {
				kernels[i], _ = BackwardKernels(cfg, sub, pol, skipDX)
			}
			got := keyed{planProgram(plan.Parts, tunedChoices(cfg, plan.Parts, pol, skipDX), true), shapeKeys(plan.Parts...)}
			if err := sameProgram(got, multiProgram(kernels)); err != nil {
				t.Errorf("%v multi-core plan %v x%d %v skipDX=%v: %v", p.Dims, plan.Scheme, len(plan.Parts), pol, skipDX, err)
			}
		}
	}
}

// TestTracedRunBackwardMatchesSchedules checks that a traced RunBackward,
// which builds its program over the layer's shape code, exports the same
// trace as the emitted kernels run through sim.RunSchedules — under every
// non-partitioned policy, dW-only, and for one partitioned plan.
func TestTracedRunBackwardMatchesSchedules(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	cfg := shapeCodeCfg()
	p := shapeCodeParams()[0]
	dump := func(run func(opts sim.Options)) []byte {
		snk := trace.New()
		run(sim.Options{Trace: snk, TraceLabel: "layer"})
		var buf bytes.Buffer
		if err := snk.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, pol := range []Policy{PolBaseline, PolInterleave, PolRearrange} {
		for _, skipDX := range []bool{false, true} {
			got := dump(func(opts sim.Options) { RunBackward(cfg, opts, p, pol, skipDX) })
			want := dump(func(opts sim.Options) {
				kernels, _ := BackwardKernels(cfg, p, pol, skipDX)
				sim.RunSchedules(cfg, opts, kernels...)
			})
			if !bytes.Equal(got, want) || !bytes.Contains(got, []byte(`"ts"`)) {
				t.Errorf("policy %v skipDX=%v: traced RunBackward differs from RunSchedules", pol, skipDX)
			}
		}
	}
	plan := PartitionLayer(p, WeightSharing, 4)
	if len(plan.Parts) < 2 {
		t.Fatal("plan degenerated")
	}
	got := dump(func(opts sim.Options) {
		runPlan(cfg, opts, p, plan, tunedChoices(cfg, plan.Parts, PolRearrange, false), false, false)
	})
	want := dump(func(opts sim.Options) {
		var scheds []schedule.Schedule
		for _, sub := range plan.Parts {
			s, _ := RearrangedTuned(cfg, sub)
			scheds = append(scheds, s)
		}
		sim.RunSchedules(cfg, opts, scheds...)
	})
	if !bytes.Equal(got, want) {
		t.Error("partitioned plan: traced run differs from RunSchedules")
	}
}

// TestRunFusedSequentialMatchesSchedules checks the fused-sequential
// baseline variant against its emitted form.
func TestRunFusedSequentialMatchesSchedules(t *testing.T) {
	cfg := shapeCodeCfg()
	for _, p := range shapeCodeParams() {
		dxK, dwK := TunedBaselineKernels(cfg, p)
		if got, want := RunFusedSequential(cfg, p), outcomeFromResult(sim.RunSchedules(cfg, sim.Options{}, ConcatKernels(dxK, dwK))); got != want {
			t.Errorf("%v: %+v, want %+v", p.Dims, got, want)
		}
	}
}

// TestOversizedTuneAllocBound bounds the transient memory of one cold
// oversized tune — the baseline pair, the fusion set and the chunked
// majors of T5's vocabulary projection on the one-shot engine — by the
// bytes it allocates. Each family lowers the shape's 2n ops once and
// orders them, instead of emitting and lowering every candidate.
func TestOversizedTuneAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~4·10⁶ ops")
	}
	const bound = 96 << 20
	cfg, ps := oversizedParams(t)
	p := ps[1]
	ResetCaches()
	defer ResetCaches()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	baselineChoices(cfg, p)
	BestOrderSimulated(cfg, p)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("one oversized tune allocated %d MiB, bound %d MiB", got>>20, bound>>20)
	}
}
