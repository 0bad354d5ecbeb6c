package core

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

// oversizedParams returns GPU-like layer shapes whose op grids exceed
// panelOpBudget: one just over it, and T5's vocabulary projection (128 512
// ops), the largest layer of the GPU validation study.
func oversizedParams(tb testing.TB) (config.NPU, []schedule.TileParams) {
	cfg := config.GPULike()
	ps := []schedule.TileParams{
		LayerParams(tensor.Dims{M: 512, K: 2112, N: 512}, 1, cfg),
		LayerParams(tensor.Dims{M: 512, K: 512, N: 32128}, 2, cfg),
	}
	for _, p := range ps {
		if p.OpCount() <= panelOpBudget {
			tb.Fatalf("%v has %d ops, not over the %d-op panel budget", p.Dims, p.OpCount(), panelOpBudget)
		}
	}
	return cfg, ps
}

// oversizedTuning is everything the tuners and the partition search
// decide for one shape.
type oversizedTuning struct {
	base  ordersVal
	ilv   ilvTuned
	order Order
	part  LayerOutcome
}

func tuneOversized(cfg config.NPU, p schedule.TileParams) oversizedTuning {
	return oversizedTuning{
		base:  baselineChoices(cfg, p),
		ilv:   interleaveTuned(cfg, p),
		order: BestOrderSimulated(cfg, p),
		part:  RunBackward(cfg, sim.Options{}, p, PolPartition, false),
	}
}

// TestOversizedTuningMatchesInterpreter holds the transient panels to the
// interpreter: over the panel budget the compiled default lowers each
// shape's base streams once and merges candidates from the code, while the
// interpreter emits and interprets every candidate. Choices, the recorded
// interleave makespan and the partitioned outcome must agree exactly.
func TestOversizedTuningMatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("interprets ~10⁶ ops per shape")
	}
	cfg, ps := oversizedParams(t)
	for _, p := range ps {
		ResetCaches()
		got := tuneOversized(cfg, p)
		prev := sim.SetCompiledDefault(false)
		ResetCaches()
		want := tuneOversized(cfg, p)
		sim.SetCompiledDefault(prev)
		if got != want {
			t.Errorf("%v: compiled tuning diverged from the interpreter:\n got %+v\nwant %+v", p.Dims, got, want)
		}
	}
	ResetCaches()
}

// TestOversizedTuningRetainsNothing checks that tuning and simulating an
// oversized shape leaves no trace in the process-lifetime caches: no
// candidate panel, no compiled layer program, and no new key in the
// residency cache's census (a transient program must never key it).
func TestOversizedTuningRetainsNothing(t *testing.T) {
	cfg, ps := oversizedParams(t)
	ResetCaches()
	// Warm the caches with an in-budget shape first, so the check sees
	// counts that are non-zero and must merely not move.
	small := LayerParams(tensor.Dims{M: 512, K: 512, N: 512}, 3, cfg)
	tuneOversized(cfg, small)
	census := func() [5]int64 {
		return [5]int64{
			int64(basePanels.Len()), int64(mergePanels.Len()), int64(majorPanels.Len()),
			int64(ProgramCacheLen()), sim.ResolvedCacheStats().Entries,
		}
	}
	before := census()
	if before[1] == 0 || before[4] == 0 {
		t.Fatalf("in-budget warm-up retained nothing: %v", before)
	}
	p := ps[0]
	baselineChoices(cfg, p)
	BestOrderSimulated(cfg, p)
	for _, pol := range []Policy{PolBaseline, PolInterleave, PolRearrange} {
		RunBackward(cfg, sim.Options{}, p, pol, false)
	}
	if after := census(); after != before {
		t.Errorf("oversized %v moved the caches (base, merge, major panels, programs, residency census): %v -> %v",
			p.Dims, before, after)
	}
	ResetCaches()
}

// TestMergePanelSharesTileTable checks that a retained fusion panel's
// merged programs are views over one lowering: every program carries the
// same tile table, not a detached copy each.
func TestMergePanelSharesTileTable(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	single := config.SmallNPU()
	np := tuneParams(LayerParams(tensor.Dims{M: 96, K: 384, N: 160}, 7, single))
	set, transient := mergePanel(single, np)
	if set == nil || transient {
		t.Fatalf("in-budget shape got no retained panel (transient=%v)", transient)
	}
	if len(set.progs) < 2 {
		t.Fatalf("panel has %d programs", len(set.progs))
	}
	keys := set.progs[0].prog.Table.Keys
	for _, mp := range set.progs[1:] {
		k := mp.prog.Table.Keys
		if len(k) != len(keys) || &k[0] != &keys[0] {
			t.Fatalf("candidate %+v has its own tile table", mp.v)
		}
	}
}

// BenchmarkTuneOversized times the tuning of one shape over the panel
// budget from cold caches: the baseline pair, the twelve fusion candidates
// and the two chunked majors, all through transient panels.
func BenchmarkTuneOversized(b *testing.B) {
	cfg, ps := oversizedParams(b)
	p := ps[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResetCaches()
		baselineChoices(cfg, p)
		BestOrderSimulated(cfg, p)
	}
}
