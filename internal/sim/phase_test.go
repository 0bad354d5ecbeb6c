package sim_test

import (
	"testing"

	"igosim/internal/proptest"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

// composeKey names one test program's family of kernels in the trace
// cache.
type composeKey struct{ program int }

// randomKernel draws one backward kernel over p: a baseline dX or dW
// stream in either loop order, a chunked dXmajor or dWmajor fusion, or the
// row-chunked partial-stationary dX stream.
func randomKernel(src *proptest.Source, p schedule.TileParams) schedule.Schedule {
	mt, _, nt := p.Tiling.Counts(p.Dims)
	switch src.Pick(5) {
	case 0:
		return schedule.Schedule{Name: "dx", Ops: schedule.BaselineDXOrdered(p, schedule.DXLoopOrder(src.Pick(2)))}
	case 1:
		return schedule.Schedule{Name: "dw", Ops: schedule.BaselineDWOrdered(p, schedule.DWLoopOrder(src.Pick(2)))}
	case 2:
		return schedule.Schedule{Name: "dxmajor", Ops: schedule.DXMajorOps(p, src.IntRange(1, mt))}
	case 3:
		return schedule.Schedule{Name: "dwmajor", Ops: schedule.DWMajorOps(p, src.IntRange(1, nt))}
	default:
		return schedule.Schedule{Name: "psdx", Ops: schedule.PartialStationaryDX(p, src.IntRange(1, mt))}
	}
}

// TestComposePhasesMatchesEngine holds ComposePhases to the engine over
// random multi-kernel programs: running 2–5 kernels as one program must
// give, field by field, the result of folding the kernels' own runs, both
// as the engine ran them and as a family hit replays them. Scratchpads of
// 256 B to 8 KiB make most programs evict and spill, and DRAM latencies of
// 0 to 19 cycles vary the pipeline's balance. Adding up the phases'
// makespans instead must be wrong: the next phase's first transfer
// overlaps the last one's compute.
func TestComposePhasesMatchesEngine(t *testing.T) {
	const programs = 400
	src := proptest.NewSource(17)
	var evicted, spilled, summed int
	defer sim.ResetResolvedCache()
	for n := range programs {
		cfg := sim.TestCfg()
		// Log-uniform over 256 B to 8 KiB.
		cfg.SPMBytes = src.Int63Range(256, 511) << src.Pick(5)
		cfg.DRAMLatency = src.Int63Range(0, 19)
		d := tensor.Dims{M: src.IntRange(1, 40), K: src.IntRange(1, 40), N: src.IntRange(1, 40)}
		p := sim.Params(d, schedule.Tiling{Tm: src.IntRange(1, 4), Tk: src.IntRange(1, 4), Tn: src.IntRange(1, 4)})
		kernels := make([]schedule.Schedule, src.IntRange(2, 5))
		for i := range kernels {
			kernels[i] = randomKernel(src, p)
		}
		member := func(i int) *schedule.Program { return sim.CompileSchedules(kernels[i]) }

		want := sim.ExecuteProgram(cfg, sim.Options{}, sim.CompileSchedules(kernels...))
		ran := sim.RunFamily(cfg, sim.Options{}, nil, len(kernels), member)
		key := composeKey{n}
		sim.RunFamily(cfg, sim.Options{}, key, len(kernels), member)
		hit := sim.RunFamily(cfg, sim.Options{}, key, len(kernels), member)
		if ran.Replayed() || !hit.Replayed() {
			t.Fatalf("program %d: the uncached run replayed %v, the second keyed lookup %v", n, ran.Replayed(), hit.Replayed())
		}
		for _, fam := range []struct {
			name    string
			f       sim.Family
			replays int64 // per member's Phase and Result
		}{{"engine", ran, 0}, {"replay", hit, 2}} {
			phases := make([]sim.Phase, len(kernels))
			for i := range phases {
				before := sim.ResolvedPhaseStats().Replays
				phases[i] = fam.f.Phase(i)
				if got, want := phases[i].Res, fam.f.Result(i); got != want {
					t.Fatalf("program %d %s kernel %d: phase result %+v, member result %+v", n, fam.name, i, got, want)
				}
				if got := sim.ResolvedPhaseStats().Replays - before; got != fam.replays {
					t.Fatalf("program %d %s kernel %d: %d replays, want %d", n, fam.name, i, got, fam.replays)
				}
			}
			if got := sim.ComposePhases(phases); got != want {
				t.Errorf("program %d (%v, %d kernels, SPM %d B, latency %d) %s phases composed to\n %+v\nengine\n %+v",
					n, d, len(kernels), cfg.SPMBytes, cfg.DRAMLatency, fam.name, got, want)
			}
		}
		var sum int64
		for i := range kernels {
			sum += ran.Result(i).Cycles
		}
		if sum != want.Cycles {
			summed++
		}
		if want.SPM.Evictions > 0 {
			evicted++
		}
		if want.Spills > 0 {
			spilled++
		}
	}
	t.Logf("%d programs: %d evicted, %d spilled", programs, evicted, spilled)
	if summed != programs {
		t.Errorf("summing the phases' makespans matched the engine on %d of %d programs; the phases must overlap", programs-summed, programs)
	}
	if evicted < programs/2 || spilled < programs/2 {
		t.Errorf("%d of %d programs evicted and %d spilled: the programs must cover scratchpad pressure", evicted, programs, spilled)
	}
}

// TestComposeNoPhases checks the empty fold: no kernels, no cycles.
func TestComposeNoPhases(t *testing.T) {
	if got := sim.ComposePhases(nil); got != (sim.Result{}) {
		t.Errorf("no phases composed to %+v", got)
	}
}
