// The engine-versus-oracle tests live in the external test package: the
// refmodel oracle imports internal/sim, so an in-package test could not
// import it.
package sim_test

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"igosim/internal/config"
	"igosim/internal/refmodel"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/trace"
)

// tightCfg shrinks the scratchpad below the test layers' working sets so the
// engine/oracle comparison covers evictions, spills and fetch-backs.
func tightCfg() config.NPU {
	cfg := sim.TestCfg()
	cfg.SPMBytes = 1 << 10
	return cfg
}

// burstCfg adds DRAM burst latency so per-op burst counts matter.
func burstCfg() config.NPU {
	cfg := sim.TestCfg()
	cfg.DRAMLatency = 7
	return cfg
}

// testKernelSets enumerates schedule sequences covering the protocol space:
// multi-kernel flushes, fused interleaving, chunked partials and edge tiles.
func testKernelSets() map[string][]schedule.Schedule {
	p := sim.Params(tensor.Dims{M: 16, K: 16, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	// Uneven dims produce edge tiles with distinct byte sizes and systolic
	// costs.
	pe := sim.Params(tensor.Dims{M: 18, K: 13, N: 10}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	return map[string][]schedule.Schedule{
		"baseline-two-kernels": {
			{Name: "dx", Ops: schedule.BaselineDX(p)},
			{Name: "dw", Ops: schedule.BaselineDW(p)},
		},
		"paired-interleave": {
			{Name: "fused", Ops: schedule.DXMajorOps(p, 1)},
		},
		"chunked-partials": {
			{Name: "dx", Ops: schedule.PartialStationaryDX(p, 2)},
			{Name: "dw", Ops: schedule.PartialStationaryDWCols(p, 2)},
		},
		"edge-tiles": {
			{Name: "dx", Ops: schedule.PartialStationaryDXCols(pe, 2)},
			{Name: "dw", Ops: schedule.PartialStationaryDW(pe, 2)},
			{Name: "fused", Ops: schedule.DXMajorOps(pe, 1)},
		},
	}
}

// TestCompiledMatchesInterpreter holds the engine to the refmodel reference
// interpreter on every counter across configurations, kernel shapes and the
// free-dY study toggle, and the retained-program path (CompileSchedules +
// ExecuteProgram) to full Result equality with RunSchedules.
func TestCompiledMatchesInterpreter(t *testing.T) {
	cfgs := map[string]config.NPU{
		"base":  sim.TestCfg(),
		"tight": tightCfg(),
		"burst": burstCfg(),
	}
	for cname, cfg := range cfgs {
		for kname, scheds := range testKernelSets() {
			prog := sim.CompileSchedules(scheds...)
			for _, free := range []bool{false, true} {
				got := sim.RunSchedules(cfg, sim.Options{FreeDYOnDW: free}, scheds...)
				want := refmodel.ReplaySchedules(cfg, refmodel.Options{FreeDYOnDW: free}, scheds...)
				if err := refmodel.Compare(got, want); err != nil {
					t.Errorf("%s/%s freeDY=%v: %v", cname, kname, free, err)
				}
				if ret := sim.ExecuteProgram(cfg, sim.Options{FreeDYOnDW: free}, prog); !reflect.DeepEqual(ret, got) {
					t.Errorf("%s/%s freeDY=%v: retained program %+v != RunSchedules %+v", cname, kname, free, ret, got)
				}
			}
		}
	}
}

// TestCompiledSpillsUnderPressure guards that the comparison above is not
// vacuous: the tight configuration must actually exercise spills.
func TestCompiledSpillsUnderPressure(t *testing.T) {
	scheds := testKernelSets()["paired-interleave"]
	r := sim.RunSchedules(tightCfg(), sim.Options{}, scheds...)
	if r.Spills == 0 {
		t.Fatal("tight config no longer spills — shrink its SPM so the engine/oracle comparison keeps covering spill paths")
	}
	if r.SPM.Evictions == 0 {
		t.Fatal("tight config no longer evicts")
	}
}

// TestCompiledTraceParity checks tracing is observation only: a traced run
// reconciles, returns the untraced Result, and exports the same trace
// bytes whether the schedules are lowered per call (RunSchedules) or run
// as a retained program (ExecuteProgram).
func TestCompiledTraceParity(t *testing.T) {
	for kname, scheds := range testKernelSets() {
		want := sim.RunSchedules(tightCfg(), sim.Options{}, scheds...)
		var dumps [2]bytes.Buffer
		for i, run := range []func(sim.Options) sim.Result{
			func(o sim.Options) sim.Result { return sim.RunSchedules(tightCfg(), o, scheds...) },
			func(o sim.Options) sim.Result {
				return sim.ExecuteProgram(tightCfg(), o, sim.CompileSchedules(scheds...))
			},
		} {
			sink := trace.New()
			if got := run(sim.Options{Trace: sink, TraceLabel: "parity"}); !reflect.DeepEqual(got, want) {
				t.Errorf("%s path %d: traced %+v != untraced %+v", kname, i, got, want)
			}
			if err := sink.Check(); err != nil {
				t.Fatalf("%s path %d: %v", kname, i, err)
			}
			if err := sink.WriteJSON(&dumps[i]); err != nil {
				t.Fatalf("%s: %v", kname, err)
			}
		}
		if !bytes.Equal(dumps[0].Bytes(), dumps[1].Bytes()) {
			t.Errorf("%s: retained-program trace differs from RunSchedules trace", kname)
		}
	}
}

// multiPhases builds a two-core, two-phase workload where both cores touch
// the same dY tiles (shared-hit coverage) and the scratchpad is under
// pressure.
func multiPhases() [][][]schedule.Op {
	p := sim.Params(tensor.Dims{M: 16, K: 16, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	return [][][]schedule.Op{
		{schedule.BaselineDX(p), schedule.BaselineDXOrdered(p, schedule.DXOrderKM)},
		{schedule.BaselineDW(p), schedule.BaselineDWOrdered(p, schedule.DWOrderNK)},
	}
}

func multiCfg() config.NPU {
	cfg := sim.TestCfg()
	cfg.Cores = 2
	cfg.SPMBytes = 1 << 10
	return cfg
}

// TestCompiledMultiMatchesInterpreter holds the multi-core engine to the
// refmodel reference interpreter on every counter, in both scratchpad
// organisations and both dY regimes.
func TestCompiledMultiMatchesInterpreter(t *testing.T) {
	cfg := multiCfg()
	for _, shared := range []bool{true, false} {
		for _, free := range []bool{false, true} {
			got := sim.RunPhases(cfg, sim.Options{FreeDYOnDW: free}, multiPhases(), shared)
			want := refmodel.ReplayMulti(cfg, refmodel.Options{FreeDYOnDW: free}, multiPhases(), shared)
			if err := refmodel.CompareMulti(got, want); err != nil {
				t.Errorf("shared=%v freeDY=%v: %v", shared, free, err)
			}
			if shared && want.SharedHits == 0 {
				t.Error("multi workload no longer produces shared hits — the comparison lost its cross-core coverage")
			}
		}
	}
}

// TestCompiledMultiTraceParity is TestCompiledTraceParity for the
// multi-core path (per-core tracks, per-buffer occupancy tracks, phases):
// a traced run reconciles and returns the untraced result. The exported
// bytes are pinned by the multi-core trace goldens in internal/trace.
func TestCompiledMultiTraceParity(t *testing.T) {
	cfg := multiCfg()
	for _, shared := range []bool{true, false} {
		want := sim.RunPhases(cfg, sim.Options{}, multiPhases(), shared)
		sink := trace.New()
		got := sim.RunPhases(cfg, sim.Options{Trace: sink, TraceLabel: "mparity"}, multiPhases(), shared)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shared=%v: traced %+v != untraced %+v", shared, got, want)
		}
		if err := sink.Check(); err != nil {
			t.Fatalf("shared=%v: %v", shared, err)
		}
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestWarmMultiRunAllocs holds a warm one-shot multi-core run — a nil-key
// RunMultiKeyed on a retained program — to a warm single-core run's
// allocations plus the returned PerCore slice, in both scratchpad
// placements: the engine's residency sets and per-core pipelines are
// reused across calls, and the one-shot path keeps no result slice.
func TestWarmMultiRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need sync.Pool reuse, which the race detector defeats")
	}
	cfg := multiCfg()
	phases := multiPhases()
	single := sim.CompileSchedules(schedule.Schedule{Name: "dx", Ops: phases[0][0]}, schedule.Schedule{Name: "dw", Ops: phases[1][0]})
	sim.ExecuteProgram(cfg, sim.Options{}, single)
	want := testing.AllocsPerRun(50, func() { sim.ExecuteProgram(cfg, sim.Options{}, single) })
	prog := sim.CompilePhases(phases)
	build := func() *schedule.Program { return prog }
	for _, shared := range []bool{true, false} {
		sim.RunMultiKeyed(cfg, sim.Options{}, nil, shared, build)
		multi := testing.AllocsPerRun(50, func() { sim.RunMultiKeyed(cfg, sim.Options{}, nil, shared, build) })
		if multi > want+1 {
			t.Errorf("shared=%v: warm one-shot RunMultiKeyed allocates %v times, want at most %v (ExecuteProgram's %v plus PerCore)", shared, multi, want+1, want)
		}
	}
}

// TestRunMultiKeyedConcurrent drives the value-keyed multi-core trace
// cache from eight goroutines at once over a bandwidth sweep in both
// scratchpad placements: every call must return exactly a one-shot run's
// result for its configuration. Afterwards a resolved key must replay
// without building, and a disabled cache must build on every call.
func TestRunMultiKeyedConcurrent(t *testing.T) {
	sim.ResetResolvedCache()
	defer sim.ResetResolvedCache()
	type phasesKey struct{ name string }
	key := phasesKey{"multiPhases"}
	var builds atomic.Int64
	build := func() *schedule.Program {
		builds.Add(1)
		return sim.CompilePhases(multiPhases())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, bw := range []float64{1e9, 3e9, 9e9, 27e9} {
				cfg := multiCfg().WithBandwidth(bw)
				for _, shared := range []bool{true, false} {
					got := sim.RunMultiKeyed(cfg, sim.Options{}, key, shared, build)
					if want := sim.RunPhases(cfg, sim.Options{}, multiPhases(), shared); !reflect.DeepEqual(got, want) {
						t.Errorf("bw=%g shared=%v: keyed %+v != engine %+v", bw, shared, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()

	cfg := multiCfg().WithBandwidth(5e9)
	before := builds.Load()
	sim.RunMultiKeyed(cfg, sim.Options{}, key, true, build)
	if n := builds.Load() - before; n != 0 {
		t.Errorf("a resolved key built %d times", n)
	}
	prev := sim.SetResidencyCacheBytes(0)
	defer sim.SetResidencyCacheBytes(prev)
	before = builds.Load()
	sim.RunMultiKeyed(cfg, sim.Options{}, key, true, build)
	if n := builds.Load() - before; n != 1 {
		t.Errorf("a disabled cache built %d times for one call, want 1", n)
	}
}

// TestRunMultiKeyedTooManyCores checks that a built program with a kernel
// on a core the configuration lacks panics, keyed or not, instead of
// running every core on a 1/cfg.Cores bandwidth slice it does not own.
func TestRunMultiKeyedTooManyCores(t *testing.T) {
	sim.ResetResolvedCache()
	defer sim.ResetResolvedCache()
	phases := multiPhases()
	phases[0] = append(phases[0], phases[0][0]) // a third core
	for _, key := range []any{nil, "three-core"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("key %v: a three-core program ran on a two-core config", key)
				}
			}()
			sim.RunMultiKeyed(multiCfg(), sim.Options{}, key, true, func() *schedule.Program {
				return sim.CompilePhases(phases)
			})
		}()
	}
}

// TestRunFamilyConcurrent is RunMultiKeyed's test for single-core
// families: eight goroutines look one four-member family up at once over
// a bandwidth sweep, and every member must read exactly ExecuteProgram's
// result for its configuration, whichever goroutine resolved it.
// Afterwards a resolved family must replay without building a member, and
// a disabled cache must build every member on every call.
func TestRunFamilyConcurrent(t *testing.T) {
	sim.ResetResolvedCache()
	defer sim.ResetResolvedCache()
	sets := testKernelSets()
	names := []string{"baseline-two-kernels", "paired-interleave", "chunked-partials", "edge-tiles"}
	type familyKey struct{ name string }
	key := familyKey{"kernel sets"}
	var builds atomic.Int64
	member := func(i int) *schedule.Program {
		builds.Add(1)
		return sim.CompileSchedules(sets[names[i]]...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, bw := range []float64{1e9, 3e9, 9e9, 27e9} {
				cfg := tightCfg().WithBandwidth(bw)
				fam := sim.RunFamily(cfg, sim.Options{}, key, len(names), member)
				for i, name := range names {
					want := sim.ExecuteProgram(cfg, sim.Options{}, sim.CompileSchedules(sets[name]...))
					if got := fam.Result(i); !reflect.DeepEqual(got, want) {
						t.Errorf("bw=%g %s: family %+v != engine %+v", bw, name, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()

	cfg := tightCfg().WithBandwidth(5e9)
	before := builds.Load()
	sim.RunFamily(cfg, sim.Options{}, key, len(names), member).Result(0)
	if n := builds.Load() - before; n != 0 {
		t.Errorf("a resolved family built %d members", n)
	}
	prev := sim.SetResidencyCacheBytes(0)
	defer sim.SetResidencyCacheBytes(prev)
	before = builds.Load()
	sim.RunFamily(cfg, sim.Options{}, key, len(names), member)
	if n := builds.Load() - before; n != int64(len(names)) {
		t.Errorf("a disabled cache built %d members for one call, want %d", n, len(names))
	}
}

// TestCompiledEngineReuse checks that a pooled engine re-initialized for a
// new configuration and program carries nothing over from the previous run.
func TestCompiledEngineReuse(t *testing.T) {
	big := testKernelSets()["edge-tiles"]
	small := testKernelSets()["baseline-two-kernels"]

	fresh := sim.NewCompiledEngine(tightCfg(), sim.Options{})
	progSmall := sim.CompileSchedules(small...)
	fresh.RunProgram(progSmall)
	want := fresh.Result()

	reused := sim.NewCompiledEngine(burstCfg(), sim.Options{FreeDYOnDW: true})
	progBig := sim.CompileSchedules(big...)
	reused.RunProgram(progBig)
	reused.Init(tightCfg(), sim.Options{})
	reused.RunProgram(progSmall)
	if got := reused.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("reused engine %+v != fresh engine %+v", got, want)
	}
}
