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

// TestOversizedTuningMatchesInterpreter holds the one-shot candidate
// families to the refmodel reference interpreter: over the panel budget
// the compiled tuners lower each shape's base streams once and merge
// candidates from the code, while the oracle emits every candidate
// schedule and replays it in the tuners' order. Choices, the recorded interleave makespan and the
// partitioned outcome must agree exactly.
func TestOversizedTuningMatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("replays ~10⁷ ops through the oracle per shape")
	}
	cfg, ps := oversizedParams(t)
	o := newOracle()
	for _, p := range ps {
		ResetCaches()
		got := tuneOversized(cfg, p)
		want := oversizedTuning{
			base:  o.baseline(cfg, p),
			ilv:   o.interleave(cfg, p),
			order: o.bestOrder(cfg, p),
			part:  o.backward(cfg, p, PolPartition, false),
		}
		if got != want {
			t.Errorf("%v: compiled tuning diverged from the oracle:\n got %+v\nwant %+v", p.Dims, got, want)
		}
	}
	ResetCaches()
}

// TestOversizedTuningRetainsNothing checks that tuning and simulating an
// oversized shape leaves no trace in the process-lifetime caches: no
// family or layer-program key in the censuses, no new key in the residency
// cache's census (a one-shot run must never key it) and no resident trace
// byte.
func TestOversizedTuningRetainsNothing(t *testing.T) {
	cfg, ps := oversizedParams(t)
	ResetCaches()
	// Warm the caches with an in-budget shape first, so the check sees
	// counts that are non-zero and must merely not move.
	small := LayerParams(tensor.Dims{M: 512, K: 512, N: 512}, 3, cfg)
	tuneOversized(cfg, small)
	census := func() [6]int64 {
		return [6]int64{
			int64(panelCensus[famBaseline].Len()), int64(panelCensus[famMerge].Len()),
			int64(panelCensus[famMajor].Len()), int64(progCensus.Len()),
			sim.ResolvedCacheStats().Entries, int64(sim.ResolvedCacheBytes()),
		}
	}
	before := census()
	if before[1] == 0 || before[4] == 0 || before[5] == 0 {
		t.Fatalf("in-budget warm-up retained nothing: %v", before)
	}
	p := ps[0]
	baselineChoices(cfg, p)
	BestOrderSimulated(cfg, p)
	for _, pol := range []Policy{PolBaseline, PolInterleave, PolRearrange} {
		RunBackward(cfg, sim.Options{}, p, pol, false)
	}
	if after := census(); after != before {
		t.Errorf("oversized %v moved the caches (baseline, merge, major families, layer programs, residency census, trace bytes): %v -> %v",
			p.Dims, before, after)
	}
	ResetCaches()
}

// BenchmarkTuneOversized times the tuning of one shape over the panel
// budget from cold caches: the baseline pair, the twelve fusion candidates
// and the two chunked majors, all on the one-shot engine.
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
