package core

import (
	"fmt"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/trace"
	"igosim/internal/workload"
)

// ModelRun is the simulated training step (forward + backward) of one model
// under one policy.
type ModelRun struct {
	Model  string
	Config string
	Policy Policy
	// Fwd and Bwd hold per-layer outcomes in network order.
	Fwd []LayerOutcome
	Bwd []LayerOutcome
	// FwdCycles/BwdCycles are the summed per-pass makespans.
	FwdCycles int64
	BwdCycles int64
	// BwdTraffic aggregates backward-pass DRAM traffic (Figure 5's basis).
	BwdTraffic dram.Traffic
}

// TotalCycles returns the training-step makespan (forward + backward).
func (r ModelRun) TotalCycles() int64 { return r.FwdCycles + r.BwdCycles }

// Seconds converts the training-step makespan to wall-clock time. A
// configuration without a valid clock (FrequencyHz <= 0) yields 0 rather
// than +Inf/NaN.
func (r ModelRun) Seconds(cfg config.NPU) float64 {
	if cfg.FrequencyHz <= 0 {
		return 0
	}
	return float64(r.TotalCycles()) / cfg.FrequencyHz
}

// traceOpts injects the process-wide active trace sink into opts when the
// caller did not pass one explicitly, and labels the layer's trace tracks
// "model/layer pass". Returns opts unchanged when tracing is off entirely.
func traceOpts(opts sim.Options, model, layer, pass string) sim.Options {
	if opts.Trace == nil {
		opts.Trace = trace.Active()
	}
	if opts.Trace != nil {
		opts.TraceLabel = model + "/" + layer + " " + pass
	}
	return opts
}

// LayerPlan pairs a workload layer with its tile parameters, fixing ids and
// tiling once so every policy simulates identical tile grids.
type LayerPlan struct {
	Layer  workload.Layer
	Params schedule.TileParams
}

// PlanModel lowers a model to per-layer tile parameters under cfg. The
// batch is the configuration's total batch (scaled per model for
// recommendation workloads inside the zoo).
func PlanModel(cfg config.NPU, m workload.Model) []LayerPlan {
	layers := m.Layers(cfg.TotalBatch())
	if len(layers) > schedule.MaxLayers {
		panic(fmt.Sprintf("core: model %s has %d layers, max %d", m.Abbr, len(layers), schedule.MaxLayers))
	}
	plans := make([]LayerPlan, len(layers))
	for i, l := range layers {
		params := LayerParams(l.Dims, uint16(i), cfg)
		params.XFactor = l.XReuse
		plans[i] = LayerPlan{Layer: l, Params: params}
	}
	return plans
}

// layerPair is one layer's forward/backward outcome, produced by the
// runner fan-out and folded back into a ModelRun in network order.
type layerPair struct {
	fwd, bwd LayerOutcome
}

// runModel simulates one training step of m: each layer's forward pass
// when fwd (always baseline — the techniques only transform the backward
// pass), and its backward pass through bwd, which gets the layer's trace
// options. Layers are independent simulations, so they fan out over the
// runner's worker pool; outcomes are folded back in network order,
// keeping results identical to the sequential walk.
func runModel(cfg config.NPU, opts sim.Options, m workload.Model, pol Policy, fwd bool, bwd func(sim.Options, LayerPlan) LayerOutcome) ModelRun {
	run := ModelRun{Model: m.Abbr, Config: cfg.Name, Policy: pol}
	outs := runner.Map(PlanModel(cfg, m), func(lp LayerPlan) layerPair {
		var o layerPair
		if fwd {
			o.fwd = RunForwardMulti(cfg, traceOpts(opts, m.Abbr, lp.Layer.Name, "fwd"), lp.Params)
			o.fwd.Name = lp.Layer.Name
		}
		o.bwd = bwd(traceOpts(opts, m.Abbr, lp.Layer.Name, "bwd"), lp)
		o.bwd.Name = lp.Layer.Name
		return o
	})
	for _, o := range outs {
		if fwd {
			run.Fwd = append(run.Fwd, o.fwd)
			run.FwdCycles += o.fwd.Cycles
		}
		run.Bwd = append(run.Bwd, o.bwd)
		run.BwdCycles += o.bwd.Cycles
		run.BwdTraffic.Merge(o.bwd.Traffic)
	}
	return run
}

// RunTraining simulates one training step of the model: the forward pass
// and the backward pass under the given policy. Multi-core configurations
// are handled transparently.
func RunTraining(cfg config.NPU, opts sim.Options, m workload.Model, pol Policy) ModelRun {
	run := runModel(cfg, opts, m, pol, true, func(o sim.Options, lp LayerPlan) LayerOutcome {
		return RunBackwardMulti(cfg, o, lp.Params, pol, lp.Layer.SkipDX)
	})
	countModelRun(run)
	return run
}

// RunBackwardOnly simulates just the backward pass of the model under the
// given policy (used by the Figure 17 GPU study, which measures only the
// backward pass).
func RunBackwardOnly(cfg config.NPU, opts sim.Options, m workload.Model, pol Policy) ModelRun {
	run := runModel(cfg, opts, m, pol, false, func(o sim.Options, lp LayerPlan) LayerOutcome {
		return RunBackwardMulti(cfg, o, lp.Params, pol, lp.Layer.SkipDX)
	})
	countModelRun(run)
	return run
}

// Improvement returns the fractional execution-time reduction of run
// against base (paper metric: "reduce the execution time by X%").
func Improvement(base, run ModelRun) float64 {
	b := base.TotalCycles()
	if b == 0 {
		return 0
	}
	return 1 - float64(run.TotalCycles())/float64(b)
}
