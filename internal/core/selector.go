package core

import (
	"igosim/internal/config"
	"igosim/internal/runner"
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
// Section 4.3 Algorithm-1-vs-ideal study). Layers fan out over the runner
// pool and each (shape, chosen order) simulation is memoized, so the four
// selector variants of the study mostly re-use each other's results.
func RunTrainingSelector(cfg config.NPU, opts sim.Options, m workload.Model, sel OrderSelector) ModelRun {
	run := ModelRun{Model: m.Abbr, Config: cfg.Name, Policy: PolRearrange}
	outs := runner.Map(PlanModel(cfg, m), func(lp LayerPlan) layerPair {
		fwd := RunForwardMulti(cfg, traceOpts(opts, m.Abbr, lp.Layer.Name, "fwd"), lp.Params)
		fwd.Name = lp.Layer.Name

		bopts := traceOpts(opts, m.Abbr, lp.Layer.Name, "bwd")
		var bwd LayerOutcome
		if lp.Layer.SkipDX {
			bwd = runSelectorDWOnly(cfg, bopts, lp.Params)
		} else {
			bwd = runSelectorBackward(cfg, bopts, lp.Params, sel(cfg, lp.Params))
		}
		bwd.Name = lp.Layer.Name
		bwd.Dims = lp.Params.Dims
		bwd.Policy = PolRearrange
		bwd.Parts = 1
		return layerPair{fwd: fwd, bwd: bwd}
	})
	for _, o := range outs {
		run.Fwd = append(run.Fwd, o.fwd)
		run.FwdCycles += o.fwd.Cycles
		run.Bwd = append(run.Bwd, o.bwd)
		run.BwdCycles += o.bwd.Cycles
		run.BwdTraffic.Merge(o.bwd.Traffic)
	}
	return run
}

// runSelectorBackward simulates the rearranged backward pass under an
// explicit order choice, memoized per (shape, order).
func runSelectorBackward(cfg config.NPU, opts sim.Options, p schedule.TileParams, o Order) LayerOutcome {
	key := layerKeyFor(cfg, p, memoSelectorBwd, opts)
	key.order = o
	return memoLayer(key, opts, func() LayerOutcome {
		var v ordersVal
		if o != DXMajor && o != DWMajor {
			o, v = OnlyInterleave, interleaveChoices(cfg, p)
		}
		prog := planProgram(cfg, []schedule.TileParams{p}, PolRearrange, false, false, []Order{o}, []ordersVal{v})
		out := outcomeFromResult(sim.ExecuteProgram(cfg, opts, prog))
		out.Order = o
		return out
	})
}

// runSelectorDWOnly simulates the dW-only first layer, memoized per shape.
func runSelectorDWOnly(cfg config.NPU, opts sim.Options, p schedule.TileParams) LayerOutcome {
	key := layerKeyFor(cfg, p, memoSelectorBwd, opts)
	key.skipDX = true
	return memoLayer(key, opts, func() LayerOutcome {
		prog := planProgram(cfg, []schedule.TileParams{p}, PolBaseline, true, false, []Order{OnlyInterleave}, []ordersVal{baselineChoices(cfg, p)})
		return outcomeFromResult(sim.ExecuteProgram(cfg, opts, prog))
	})
}

// ConcatKernels joins kernels into one schedule (no flush between them) —
// the emitted form of RunFusedSequential's program, kept as the oracle's
// input.
func ConcatKernels(kernels ...schedule.Schedule) schedule.Schedule {
	var ops []schedule.Op
	for _, k := range kernels {
		ops = append(ops, k.Ops...)
	}
	return schedule.Schedule{Name: "fused-sequential", Ops: ops}
}

// RunFusedSequential simulates the "single kernel that sequentially
// calculates dX and dW without interleaving" baseline variant of the
// Figure 17 GPU study: the tuned baseline pair of TunedBaselineKernels as
// one kernel, with no flush between them.
func RunFusedSequential(cfg config.NPU, p schedule.TileParams) sim.Result {
	return sim.ExecuteProgram(cfg, sim.Options{}, fusedSequentialProgram(p, baselineChoices(cfg, p)))
}
