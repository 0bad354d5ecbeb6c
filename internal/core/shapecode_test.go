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

// onePart wraps a whole layer's parameters and tuned choices as the
// one-part plan planProgram takes.
func onePart(p schedule.TileParams, o Order, v ordersVal) ([]schedule.TileParams, []Order, []ordersVal) {
	return []schedule.TileParams{p}, []Order{o}, []ordersVal{v}
}

// TestShapeCodePrograms holds every program built over a shape code to
// the schedules the Op emitters produce for it, lowered through one
// compiler: the tuners' baseline, merge and major family members, the
// layer programs of every policy (dW-only included, and the rearranged
// program under each order), the fused-sequential pair, every single-core partitioned plan's program,
// every multi-core plan's program against BackwardKernels phase by phase,
// and the forward programs on one and two cores.
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
		base := baselineMembers(p, dxs, dws)
		for i, c := range dxs {
			check(fmt.Sprintf("baseline dX %d", c), base(i),
				schedule.Schedule{Name: "baseline-dX", Ops: baselineDXOps(p, c)})
		}
		for i, c := range dws {
			check(fmt.Sprintf("baseline dW %d", c), base(len(dxs)+i),
				schedule.Schedule{Name: "baseline-dW", Ops: baselineDWOps(p, c)})
		}
		vs := mergeCandidates(p)
		merge := mergeMembers(p, vs)
		for i, v := range vs {
			ops := mergeStreams(nil, baselineDXOps(p, v.dx), baselineDWOps(p, v.dw), v.block)
			check(fmt.Sprintf("merge %+v", v), merge(i), schedule.Schedule{Name: "interleave", Ops: ops})
		}
		major := majorMembers(cfg, p)
		check("major dX", major(0), FusedDXMajor(cfg, p))
		check("major dW", major(1), FusedDWMajor(cfg, p))

		for _, pol := range []Policy{PolBaseline, PolInterleave, PolRearrange} {
			for _, skipDX := range []bool{false, true} {
				o, v := tunedChoices(cfg, p, pol, skipDX)
				kernels, _ := BackwardKernels(cfg, p, pol, skipDX)
				ps, ords, vals := onePart(p, o, v)
				check(fmt.Sprintf("layer %v skipDX=%v", pol, skipDX), planProgram(cfg, ps, pol, skipDX, false, ords, vals), kernels...)
			}
		}
		for _, o := range Orders() {
			v := interleaveChoices(cfg, p)
			sched, _ := RearrangedWithOrder(cfg, p, o)
			ps, ords, vals := onePart(p, o, v)
			check(fmt.Sprintf("rearranged %v", o), planProgram(cfg, ps, PolRearrange, false, false, ords, vals), sched)
		}
		dxK, dwK := TunedBaselineKernels(cfg, p)
		check("fused-sequential", fusedSequentialProgram(p, baselineChoices(cfg, p)), ConcatKernels(dxK, dwK))

		for _, scheme := range Schemes() {
			for _, parts := range []int{2, 4} {
				plan := PartitionLayer(p, scheme, parts)
				orders := make([]Order, len(plan.Parts))
				tuned := make([]ordersVal, len(plan.Parts))
				scheds := make([]schedule.Schedule, len(plan.Parts))
				for i, sub := range plan.Parts {
					orders[i], tuned[i] = tunedChoices(cfg, sub, PolRearrange, false)
					scheds[i], _ = RearrangedWithOrder(cfg, sub, orders[i])
				}
				got := keyed{planProgram(cfg, plan.Parts, PolRearrange, false, false, orders, tuned), shapeKeys(plan.Parts...)}
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
			{"baseline", len(dxs) + len(dws), baselineMembers(p, dxs, dws)},
			{"merge", len(vs), mergeMembers(p, vs)},
			{"major", 2, majorMembers(cfg, p)},
		}
		for _, f := range families {
			var kept []schedule.Program
			for i := range f.n {
				m := f.member(i) // members share storage: keep copies
				prog := schedule.Program{Order: slices.Clone(m.Order), Kernels: slices.Clone(m.Kernels)}
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
					v := ordersVal{dx: dc, dw: wc, block: blk}
					order := g.appendInterleave(nil, v)
					if !slices.ContainsFunc(vs, func(k ordersVal) bool { return slices.Equal(order, g.appendInterleave(nil, k)) }) {
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
			orders := make([]Order, len(plan.Parts))
			tuned := make([]ordersVal, len(plan.Parts))
			kernels := make([][]schedule.Schedule, len(plan.Parts))
			for i, sub := range plan.Parts {
				orders[i], tuned[i] = tunedChoices(cfg, sub, pol, skipDX)
				kernels[i], _ = BackwardKernels(cfg, sub, pol, skipDX)
			}
			got := keyed{planProgram(cfg, plan.Parts, pol, skipDX, true, orders, tuned), shapeKeys(plan.Parts...)}
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
	got := dump(func(opts sim.Options) { runPlan(cfg, opts, p, plan, PolRearrange, false, false, false) })
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
		if got, want := RunFusedSequential(cfg, p), sim.RunSchedules(cfg, sim.Options{}, ConcatKernels(dxK, dwK)); got != want {
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
