package core

import (
	"reflect"
	"strings"
	"testing"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/workload"
)

// tinyCfg keeps pipeline tests fast: a scaled-down NPU.
func tinyCfg() config.NPU {
	return config.NPU{
		Name: "tiny", ArrayRows: 8, ArrayCols: 8, Cores: 1,
		SPMBytes: 32 << 10, DRAMBandwidth: 8e9, DRAMLatency: 10,
		FrequencyHz: 1e9, ElemBytes: 4, Batch: 2,
	}
}

func TestTunedBaselineKernelsVerify(t *testing.T) {
	cfg := tinyCfg()
	p := LayerParams(tensor.Dims{M: 64, K: 48, N: 32}, 1, cfg)
	dxK, dwK := TunedBaselineKernels(cfg, p)
	ops := append(append([]schedule.Op{}, dxK.Ops...), dwK.Ops...)
	if err := schedule.VerifyBackward(p, ops, false); err != nil {
		t.Fatal(err)
	}
}

func TestTunedInterleaveVerifiesAndIsEquivalent(t *testing.T) {
	cfg := tinyCfg()
	d := tensor.Dims{M: 64, K: 48, N: 32}
	p := LayerParams(d, 1, cfg)
	s := TunedInterleave(cfg, p)
	if err := schedule.VerifyBackward(p, s.Ops, false); err != nil {
		t.Fatal(err)
	}
	if err := CheckEquivalence(d, p.Tiling, s.Ops, 1e-8); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardKernelsBaselineHasTwoKernels(t *testing.T) {
	cfg := tinyCfg()
	p := LayerParams(tensor.Dims{M: 32, K: 32, N: 32}, 1, cfg)
	kernels, _ := BackwardKernels(cfg, p, PolBaseline, false)
	if len(kernels) != 2 {
		t.Fatalf("baseline kernels = %d, want 2 (dX then dW)", len(kernels))
	}
	for _, pol := range []Policy{PolInterleave, PolRearrange} {
		kernels, _ := BackwardKernels(cfg, p, pol, false)
		if len(kernels) != 1 {
			t.Fatalf("%v kernels = %d, want 1 (fused)", pol, len(kernels))
		}
	}
	kernels, _ = BackwardKernels(cfg, p, PolPartition, true)
	if len(kernels) != 1 {
		t.Fatal("skipDX should produce a single dW kernel")
	}
}

func TestRunBackwardPartitionNeverWorseThanRearrange(t *testing.T) {
	cfg := tinyCfg()
	for _, d := range []tensor.Dims{
		{M: 128, K: 64, N: 32},
		{M: 16, K: 256, N: 64},
		{M: 64, K: 64, N: 64},
	} {
		p := LayerParams(d, 1, cfg)
		rea := RunBackward(cfg, sim.Options{}, p, PolRearrange, false)
		par := RunBackward(cfg, sim.Options{}, p, PolPartition, false)
		if par.Cycles > rea.Cycles {
			t.Errorf("%v: partition %d cycles worse than rearrange %d", d, par.Cycles, rea.Cycles)
		}
	}
}

func TestRearrangeNeverWorseThanInterleave(t *testing.T) {
	// BestOrderSimulated includes interleave-only as a candidate, so the
	// rearranged schedule can never lose to it.
	cfg := tinyCfg()
	for _, d := range []tensor.Dims{
		{M: 128, K: 64, N: 32},
		{M: 16, K: 256, N: 64},
	} {
		p := LayerParams(d, 1, cfg)
		ilv := RunBackward(cfg, sim.Options{}, p, PolInterleave, false)
		rea := RunBackward(cfg, sim.Options{}, p, PolRearrange, false)
		if rea.Cycles > ilv.Cycles {
			t.Errorf("%v: rearrange %d worse than interleave %d", d, rea.Cycles, ilv.Cycles)
		}
	}
}

func TestSkipDXSkipsDX(t *testing.T) {
	cfg := tinyCfg()
	p := LayerParams(tensor.Dims{M: 32, K: 32, N: 32}, 1, cfg)
	out := RunBackward(cfg, sim.Options{}, p, PolPartition, true)
	if out.Traffic.Write[dram.ClassDX] != 0 {
		t.Fatal("skipDX layer wrote dX")
	}
	if out.Traffic.Write[dram.ClassDW] == 0 {
		t.Fatal("skipDX layer must still write dW")
	}
}

func TestRunForwardWritesY(t *testing.T) {
	cfg := tinyCfg()
	p := LayerParams(tensor.Dims{M: 32, K: 32, N: 32}, 1, cfg)
	out := RunForward(cfg, sim.Options{}, p)
	if out.Traffic.Write[dram.ClassY] != 32*32*4 {
		t.Fatalf("Y writeback = %d", out.Traffic.Write[dram.ClassY])
	}
}

func TestRunBackwardMultiMatchesSingleOnOneCore(t *testing.T) {
	cfg := tinyCfg()
	p := LayerParams(tensor.Dims{M: 64, K: 32, N: 32}, 1, cfg)
	single := RunBackward(cfg, sim.Options{}, p, PolBaseline, false)
	multi := RunBackwardMulti(cfg, sim.Options{}, p, PolBaseline, false)
	if single.Cycles != multi.Cycles {
		t.Fatalf("single %d vs multi %d", single.Cycles, multi.Cycles)
	}
}

func TestMultiCoreBaselineIncludesReduction(t *testing.T) {
	cfg := tinyCfg().WithCores(2)
	p := LayerParams(tensor.Dims{M: 64, K: 32, N: 32}, 1, cfg)
	out := RunBackwardMulti(cfg, sim.Options{}, p, PolBaseline, false)
	// Batch-split baseline accumulates partial dW across cores.
	if out.Traffic.Read[dram.ClassAcc] == 0 {
		t.Fatal("multi-core batch-split baseline must pay a dW reduction")
	}
	if out.Scheme != WeightSharing || out.Parts != 2 {
		t.Fatalf("baseline plan: %v/%d", out.Scheme, out.Parts)
	}
}

// TestMultiPlanOrderIsLastParts pins the access order a multi-core plan
// reports when its parts tune to different orders: the last part's, the
// same on every run (as runPartitionedSingle reports it).
func TestMultiPlanOrderIsLastParts(t *testing.T) {
	cfg := config.SmallNPU().WithCores(2)
	p := LayerParams(tensor.Dims{M: 392, K: 800, N: 128}, 0, cfg)
	plan := PartitionLayer(p, IfmapSharing, cfg.Cores)
	first := BestOrderSimulated(cfg, plan.Parts[0])
	last := BestOrderSimulated(cfg, plan.Parts[len(plan.Parts)-1])
	if first == last {
		t.Fatalf("every part tunes to %v: the plan cannot tell which part's order is reported", first)
	}
	for i := 0; i < 20; i++ {
		if got := runPlan(cfg, sim.Options{}, p, plan, tunedChoices(cfg, plan.Parts, PolRearrange, false), true, true).Order; got != last {
			t.Fatalf("run %d reports order %v, want the last part's %v", i, got, last)
		}
	}
}

func TestRunTrainingShape(t *testing.T) {
	cfg := tinyCfg()
	m := workload.Model{
		Name: "toy", Abbr: "toy",
	}
	_ = m // workload models require a build func; use a zoo model instead.
	ncf, err := workload.ByAbbr(workload.ServerSuite(), "ncf")
	if err != nil {
		t.Fatal(err)
	}
	run := RunTraining(cfg, sim.Options{}, ncf, PolBaseline)
	if len(run.Fwd) != len(run.Bwd) || len(run.Fwd) == 0 {
		t.Fatalf("per-layer outcomes: %d fwd vs %d bwd", len(run.Fwd), len(run.Bwd))
	}
	if run.FwdCycles <= 0 || run.BwdCycles <= 0 {
		t.Fatal("non-positive pass cycles")
	}
	if run.TotalCycles() != run.FwdCycles+run.BwdCycles {
		t.Fatal("TotalCycles mismatch")
	}
	// ncf is tiny and its first layer (the largest) skips dX, so only a
	// loose sanity bound applies here; the Fig03 experiment asserts the
	// backward pass dominates across the full suite.
	if run.BwdCycles*2 < run.FwdCycles {
		t.Fatal("backward pass implausibly cheap")
	}
}

func TestImprovement(t *testing.T) {
	base := ModelRun{FwdCycles: 50, BwdCycles: 50}
	run := ModelRun{FwdCycles: 50, BwdCycles: 25}
	if got := Improvement(base, run); got != 0.25 {
		t.Fatalf("improvement = %g", got)
	}
	if Improvement(ModelRun{}, run) != 0 {
		t.Fatal("zero baseline must yield zero improvement")
	}
}

func TestPolicyStrings(t *testing.T) {
	if len(Policies()) != 4 {
		t.Fatal("Policies() incomplete")
	}
	for _, p := range Policies() {
		if p.String() == "" {
			t.Fatalf("policy %d has empty name", p)
		}
	}
}

func TestRunTrainingSelectorMatchesIdeal(t *testing.T) {
	cfg := tinyCfg()
	ncf, _ := workload.ByAbbr(workload.ServerSuite(), "ncf")
	ideal := RunTrainingSelector(cfg, sim.Options{}, ncf, func(c config.NPU, p schedule.TileParams) Order {
		return BestOrderSimulated(c, p)
	})
	rea := RunTraining(cfg, sim.Options{}, ncf, PolRearrange)
	if ideal.BwdCycles != rea.BwdCycles {
		t.Fatalf("selector(ideal) %d != PolRearrange %d", ideal.BwdCycles, rea.BwdCycles)
	}
}

// TestSelectorRunsMatchEngine holds the selector study's backward runs to
// their programs executed once on the engine: for each order forced on
// every layer of NCF, the dW-only first layer included, at two bandwidths
// so that the second run replays the first's resolved traces, each
// layer's outcome must equal sim.ExecuteProgram on the same planProgram,
// bit for bit.
func TestSelectorRunsMatchEngine(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	ncf, _ := workload.ByAbbr(workload.ServerSuite(), "ncf")
	fast := tinyCfg()
	for i, cfg := range []config.NPU{fast, fast.WithBandwidth(fast.DRAMBandwidth / 2)} {
		replays := sim.ResolvedPhaseStats().Replays
		for _, o := range Orders() {
			run := RunTrainingSelector(cfg, sim.Options{}, ncf, func(config.NPU, schedule.TileParams) Order { return o })
			for j, lp := range PlanModel(cfg, ncf) {
				order, kernel := o, orderRecipe(cfg, lp.Params, o)
				if lp.Layer.SkipDX {
					order, kernel = OnlyInterleave, recipe{kind: kDWOnly, dw: baselineChoices(cfg, lp.Params).dw}
				}
				prog := planProgram([]schedule.TileParams{lp.Params}, []partKernels{{kernel}}, false)
				want := outcomeFromResult(sim.ExecuteProgram(cfg, sim.Options{}, prog))
				want.Name, want.Dims, want.Policy, want.Order, want.Parts = lp.Layer.Name, lp.Params.Dims, PolRearrange, order, 1
				if got := run.Bwd[j]; !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v %s: %+v, want %+v", cfg.Name, o, lp.Layer.Name, got, want)
				}
			}
		}
		if i == 1 && sim.ResolvedPhaseStats().Replays == replays {
			t.Fatal("the second bandwidth replayed no resolved trace")
		}
	}
}

func TestConcatKernels(t *testing.T) {
	a := schedule.Schedule{Ops: make([]schedule.Op, 3)}
	b := schedule.Schedule{Ops: make([]schedule.Op, 2)}
	if got := len(ConcatKernels(a, b).Ops); got != 5 {
		t.Fatalf("concat ops = %d", got)
	}
}

// TestParsePolicySpellings pins every policy spelling the service, the
// igosim CLI and the sweep CLI accept, in any case, and a few they reject.
func TestParsePolicySpellings(t *testing.T) {
	want := map[string]Policy{
		"baseline":          PolBaseline,
		"interleave":        PolInterleave,
		"interleaving":      PolInterleave,
		"rearrange":         PolRearrange,
		"rearrangement":     PolRearrange,
		"+rearrangement":    PolRearrange,
		"partition":         PolPartition,
		"partitioning":      PolPartition,
		"+datapartitioning": PolPartition,
	}
	for name, pol := range want {
		for _, s := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:2]) + name[2:]} {
			if got, ok := ParsePolicy(s); !ok || got != pol {
				t.Errorf("ParsePolicy(%q) = %v, %v; want %v", s, got, ok, pol)
			}
		}
	}
	for _, pol := range Policies() {
		if got, ok := ParsePolicy(pol.String()); !ok || got != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", pol.String(), got, ok, pol)
		}
	}
	for _, s := range []string{"", "all", "partitions", " baseline", "datapartitioning"} {
		if got, ok := ParsePolicy(s); ok {
			t.Errorf("ParsePolicy(%q) = %v, want rejected", s, got)
		}
	}
}
