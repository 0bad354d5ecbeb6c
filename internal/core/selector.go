package core

import (
	"igosim/internal/config"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/workload"
)

// OrderSelector chooses the interleaved access order for one layer. It
// abstracts the Section 4.3 selection policies: the Algorithm 1 listing,
// the prose rule, the static cost model, or the ideal (simulated) choice.
type OrderSelector func(cfg config.NPU, p schedule.TileParams) Order

// RunTrainingSelector simulates one single-core training step with the
// backward pass rearranged per the given order selector (used by the
// Section 4.3 Algorithm-1-vs-ideal study). Each (shape, chosen order)
// simulation is memoized, so the four selector variants of the study
// mostly re-use each other's results; dW-only layers run as RunTraining's
// do under PolRearrange. Unlike RunTraining it does not count model runs:
// core_model_runs_total counts the policy-level training steps that run
// manifests embed, and a selector variant is not one of them.
func RunTrainingSelector(cfg config.NPU, opts sim.Options, m workload.Model, sel OrderSelector) ModelRun {
	return runModel(cfg, opts, m, PolRearrange, true, func(o sim.Options, lp LayerPlan) LayerOutcome {
		if lp.Layer.SkipDX {
			return RunBackwardMulti(cfg, o, lp.Params, PolRearrange, true)
		}
		return runSelectorBackward(cfg, o, lp.Params, sel(cfg, lp.Params))
	})
}

// runSelectorBackward simulates the whole layer's rearranged backward pass
// under order o, memoized per (shape, order): the plan RunBackward runs
// under PolRearrange, with o in place of the tuned order.
func runSelectorBackward(cfg config.NPU, opts sim.Options, p schedule.TileParams, o Order) LayerOutcome {
	key := layerKeyFor(cfg, p, memoSelectorBwd, opts)
	key.order = o
	return memoLayer(key, opts, func() LayerOutcome {
		out := runPlan(cfg, opts, p, PartitionLayer(p, NoPartition, 1), []partKernels{{orderRecipe(cfg, p, o)}}, false, false)
		out.Policy = PolRearrange
		return out
	})
}

// RunFusedSequential simulates the "single kernel that sequentially
// calculates dX and dW without interleaving" baseline variant of the
// Figure 17 GPU study: the tuned baseline pair of TunedBaselineKernels as
// one kernel, with no flush between them, run one-shot.
func RunFusedSequential(cfg config.NPU, p schedule.TileParams) LayerOutcome {
	v := baselineChoices(cfg, p)
	kernels := []partKernels{{{kind: kFusedSequential, dx: v.dx, dw: v.dw}}}
	return runProgram(cfg, sim.Options{}, nil, false, false, func() *schedule.Program {
		return planProgram([]schedule.TileParams{p}, kernels, false)
	})
}
