package core

import (
	"bytes"
	"fmt"
	"runtime"
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

// sameProgram reports the first difference between got, a shape-code
// program, and want, the emitted schedules lowered through one compiler:
// op count, kernel bounds, names and cores, and op by op the tiles
// (through each program's own table), bytes, classes, tile dimensions,
// kind and flags.
func sameProgram(got *schedule.Program, want schedule.Program) error {
	if got.Ops() != want.Ops() {
		return fmt.Errorf("%d ops, want %d", got.Ops(), want.Ops())
	}
	if len(got.Kernels) != len(want.Kernels) {
		return fmt.Errorf("%d kernels, want %d", len(got.Kernels), len(want.Kernels))
	}
	for i, k := range want.Kernels {
		if got.Kernels[i] != k {
			return fmt.Errorf("kernel %d is %+v, want %+v", i, got.Kernels[i], k)
		}
	}
	gk, wk := got.Table.Keys, want.Table.Keys
	for i := range want.Code {
		j := int32(i)
		if got.Order != nil {
			j = got.Order[i]
		}
		a, b := got.Code[j], want.Code[i]
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
// sim.CompilePhases and names each kernel after its schedule.
func multiProgram(parts [][]schedule.Schedule) schedule.Program {
	prog := sim.CompilePhases(partPhases(parts))
	for j := range prog.Kernels {
		prog.Kernels[j].Name = parts[j%len(parts)][j/len(parts)].Name
	}
	return *prog
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
		check := func(what string, got *schedule.Program, want ...schedule.Schedule) {
			t.Helper()
			if err := sameProgram(got, *sim.CompileSchedules(want...)); err != nil {
				t.Errorf("%v %s: %v", p.Dims, what, err)
			}
		}

		base := baselineMembers(p)
		for c := dxMK; c <= dxKM; c++ {
			check(fmt.Sprintf("baseline dX %d", c), base(int(c)),
				schedule.Schedule{Name: "baseline-dX", Ops: baselineDXOps(p, c)})
		}
		for c := dwKN; c <= dwNK; c++ {
			check(fmt.Sprintf("baseline dW %d", c), base(2+int(c)),
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
				check(fmt.Sprintf("plan %v x%d", scheme, parts), planProgram(cfg, plan.Parts, PolRearrange, false, false, orders, tuned), scheds...)
				multiPlans(t, cfg.WithCores(parts), p, plan)
			}
		}

		for _, cores := range []int{1, 2} {
			parts := []schedule.TileParams{p}
			if cores > 1 {
				parts = PartitionLayer(p, WeightSharing, cores).Parts
			}
			kernels := make([][]schedule.Schedule, len(parts))
			for i := range parts {
				parts[i].DWPartial = false
				kernels[i] = []schedule.Schedule{schedule.Forward(parts[i])}
			}
			if err := sameProgram(forwardProgram(parts, cores > 1), multiProgram(kernels)); err != nil {
				t.Errorf("%v forward on %d cores: %v", p.Dims, cores, err)
			}
		}
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
			got := planProgram(cfg, plan.Parts, pol, skipDX, true, orders, tuned)
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
