package core

import (
	"fmt"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

// Policy selects how much of the interleaved-gradient-order stack is
// applied to the backward pass. Policies are cumulative, matching the bars
// of Figure 12: each level includes all previous techniques.
type Policy uint8

const (
	// PolBaseline is the conventional sequential backward pass.
	PolBaseline Policy = iota
	// PolInterleave adds gradient interleaving (Section 4.2).
	PolInterleave
	// PolRearrange adds the Algorithm 1 access-order selection
	// (Section 4.3) on top of interleaving.
	PolRearrange
	// PolPartition adds data partitioning (Section 5) on top of
	// rearrangement.
	PolPartition
)

func (p Policy) String() string {
	switch p {
	case PolBaseline:
		return "baseline"
	case PolInterleave:
		return "interleaving"
	case PolRearrange:
		return "+rearrangement"
	case PolPartition:
		return "+datapartitioning"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Policies lists the four cumulative policy levels.
func Policies() []Policy {
	return []Policy{PolBaseline, PolInterleave, PolRearrange, PolPartition}
}

// LayerParams builds the tile parameters for one layer under a
// configuration, using the baseline tiling strategy.
func LayerParams(d tensor.Dims, layerID uint16, cfg config.NPU) schedule.TileParams {
	return schedule.TileParams{
		Dims:      d,
		Tiling:    schedule.ChooseTiling(d, cfg),
		ElemBytes: cfg.ElemBytes,
		Layer:     layerID,
	}
}

// LayerOutcome reports the simulated backward (or forward) pass of one
// layer under one policy.
type LayerOutcome struct {
	Name    string
	Dims    tensor.Dims
	Policy  Policy
	Order   Order  // access order used (meaningful from PolRearrange up)
	Scheme  Scheme // partition scheme used (meaningful at PolPartition)
	Parts   int    // partition count used
	Cycles  int64
	Compute int64
	Mem     int64
	Traffic dram.Traffic
	Spills  int64
	// SPM reports scratchpad hit/miss/eviction counts (on multi-core runs,
	// of the shared or core-0 residency set).
	SPM sim.SPMStats
	// SharedHits counts cross-core SPM hits (multi-core runs only).
	SharedHits int64
}

// Seconds converts the outcome to wall-clock time under cfg. A
// configuration without a valid clock (FrequencyHz <= 0) yields 0 rather
// than +Inf/NaN.
func (l LayerOutcome) Seconds(cfg config.NPU) float64 {
	if cfg.FrequencyHz <= 0 {
		return 0
	}
	return float64(l.Cycles) / cfg.FrequencyHz
}

func outcomeFromResult(r sim.Result) LayerOutcome {
	return LayerOutcome{
		Cycles:  r.Cycles,
		Compute: r.ComputeCycles,
		Mem:     r.MemCycles,
		Traffic: r.Traffic,
		Spills:  r.Spills,
		SPM:     r.SPM,
	}
}

func (l *LayerOutcome) addReductions(reds []sim.ReduceResult) {
	for _, r := range reds {
		l.Cycles += r.Cycles
		l.Mem += r.Cycles
		l.Traffic.Merge(r.Traffic)
	}
}

// BackwardKernels emits the backward-pass kernels for the non-partitioned
// policies. The baseline returns its two gradient GEMMs as separate kernels
// (the scratchpad is flushed between kernels, so dY cannot be reused across
// them); the fused policies return a single kernel. skipDX marks the
// network's first layer, which has no upstream to propagate into: only dW
// is computed and interleaving does not apply (Section 6.2).
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

// RearrangedTuned emits the rearranged (interleaved + reordered) schedule
// with the simulated-best access order.
func RearrangedTuned(cfg config.NPU, p schedule.TileParams) (schedule.Schedule, Order) {
	return RearrangedWithOrder(cfg, p, BestOrderSimulated(cfg, p))
}

// RearrangedStatic emits the rearranged schedule with the order chosen by
// the static Algorithm 1 cost model (constant-time, dimensions only).
func RearrangedStatic(cfg config.NPU, p schedule.TileParams) (schedule.Schedule, Order) {
	return RearrangedWithOrder(cfg, p, SelectOrderFor(p, cfg.SPMBytes))
}

// RearrangedWithOrder emits the rearranged schedule for an explicit order.
func RearrangedWithOrder(cfg config.NPU, p schedule.TileParams, o Order) (schedule.Schedule, Order) {
	switch o {
	case DXMajor:
		return FusedDXMajor(cfg, p), o
	case DWMajor:
		return FusedDWMajor(cfg, p), o
	default:
		return TunedInterleave(cfg, p), OnlyInterleave
	}
}

// RunBackward simulates one layer's backward pass on a single core.
//
// For PolPartition the partitioning plan is chosen empirically: the
// rearranged layer is simulated whole and under every scheme of Figure 11
// with 2 and 4 partitions, and the fastest wins. (The KNN-driven selection
// the paper evaluates in Section 5 lives in SelectSchemeKNN; Figure 12 uses
// the empirically best plan.)
func RunBackward(cfg config.NPU, opts sim.Options, p schedule.TileParams, pol Policy, skipDX bool) LayerOutcome {
	if pol != PolPartition || skipDX {
		var out LayerOutcome
		var order Order
		if useTraceCache(opts, p) {
			// Untraced runs replay a shared resolved trace: emission,
			// lowering and residency resolution happen once per (shape,
			// policy, tuned-candidate) point, then every layer and every
			// hardware timing that maps to it just replays.
			res, o := runBackwardKeyed(cfg, opts, p, pol, skipDX)
			out = outcomeFromResult(res)
			order = o
		} else {
			kernels, o := BackwardKernels(cfg, p, pol, skipDX)
			out = outcomeFromResult(sim.RunSchedules(cfg, opts, kernels...))
			order = o
		}
		out.Dims = p.Dims
		out.Policy = pol
		out.Order = order
		out.Scheme = NoPartition
		out.Parts = 1
		return out
	}

	best := RunBackward(cfg, opts, p, PolRearrange, skipDX)
	best.Policy = PolPartition
	for _, scheme := range Schemes() {
		for _, parts := range []int{2, 4} {
			cand, ok := runPartitionedSingle(cfg, opts, p, scheme, parts)
			if ok && cand.Cycles < best.Cycles {
				cand.Policy = PolPartition
				best = cand
			}
		}
	}
	return best
}

// runPartitionedSingle simulates a partitioned plan on a single core:
// partitions execute one after another (Section 5: "processed one partition
// at a time on a single-core NPU over time"), followed by the reduction
// phases the scheme requires. ok is false when the plan degenerates to a
// single partition.
func runPartitionedSingle(cfg config.NPU, opts sim.Options, p schedule.TileParams, scheme Scheme, parts int) (LayerOutcome, bool) {
	plan := PartitionLayer(p, scheme, parts)
	if len(plan.Parts) < 2 {
		return LayerOutcome{}, false
	}
	// Partitions are separate kernels on one core: the scratchpad is flushed
	// between them. Untraced in-budget runs replay a shared resolved trace
	// (per-part orders resolved first, mirroring runBackwardKeyed);
	// otherwise the kernels are emitted and simulated directly.
	var out LayerOutcome
	var orderList []Order
	if useTraceCache(opts, p) {
		if res, orders, ok := runPartitionedKeyed(cfg, opts, p, scheme, parts, plan); ok {
			out = outcomeFromResult(res)
			orderList = orders
		}
	}
	if orderList == nil {
		scheds := make([]schedule.Schedule, 0, len(plan.Parts))
		orderList = make([]Order, 0, len(plan.Parts))
		for _, sub := range plan.Parts {
			sched, o := RearrangedTuned(cfg, sub)
			orderList = append(orderList, o)
			scheds = append(scheds, sched)
		}
		out = outcomeFromResult(sim.RunSchedules(cfg, opts, scheds...))
	}
	out.addReductions(plan.ReduceResults(cfg))
	out.Dims = p.Dims
	out.Scheme = scheme
	out.Parts = len(plan.Parts)
	for _, o := range orderList {
		out.Order = o // representative order (identical across equal splits)
	}
	return out, true
}

// RunBackwardOrder simulates one layer's backward pass with an explicitly
// chosen access order (used by the Section 4.3 ideal-vs-Algorithm-1 study).
// Results are memoized per layer shape.
func RunBackwardOrder(cfg config.NPU, opts sim.Options, p schedule.TileParams, o Order) LayerOutcome {
	key := layerKeyFor(cfg, p, memoBackwardOrder, opts)
	key.order = o
	return memoLayer(key, opts, func() LayerOutcome {
		out := outcomeFromResult(sim.RunSchedules(cfg, opts, Interleaved(p, o)))
		out.Dims = p.Dims
		out.Policy = PolRearrange
		out.Order = o
		out.Scheme = NoPartition
		out.Parts = 1
		return out
	})
}

// RunForward simulates one layer's forward pass (always the baseline
// schedule: the paper's techniques only transform the backward pass). Only
// the tracing fields of opts apply; schedule-shaping options are ignored.
func RunForward(cfg config.NPU, opts sim.Options, p schedule.TileParams) LayerOutcome {
	fopts := sim.Options{Trace: opts.Trace, TraceLabel: opts.TraceLabel}
	var out LayerOutcome
	if useTraceCache(fopts, p) {
		out = outcomeFromResult(runForwardKeyed(cfg, fopts, p))
	} else {
		out = outcomeFromResult(sim.RunSchedules(cfg, fopts, schedule.Forward(p)))
	}
	out.Dims = p.Dims
	out.Parts = 1
	return out
}

// RunBackwardMulti simulates one layer's backward pass on a multi-core NPU
// with shared SPM. It is the per-layer entry point of every training-step
// loop, and its outcomes are memoized per layer shape: repeated blocks
// (ResNet stages, BERT encoder layers) and repeated grid points across
// experiments simulate once.
//
// The baseline policy uses conventional batch-basis data parallelism
// (weight-sharing partitioning) with sequential per-core backward passes.
// PolInterleave/PolRearrange keep batch-basis partitioning but transform
// each core's stream. PolPartition additionally searches the three schemes
// of Figure 11 for the best inter-core distribution.
func RunBackwardMulti(cfg config.NPU, opts sim.Options, p schedule.TileParams, pol Policy, skipDX bool) LayerOutcome {
	key := layerKeyFor(cfg, p, memoBackward, opts)
	key.pol, key.skipDX = pol, skipDX
	return memoLayer(key, opts, func() LayerOutcome {
		return runBackwardMulti(cfg, opts, p, pol, skipDX)
	})
}

func runBackwardMulti(cfg config.NPU, opts sim.Options, p schedule.TileParams, pol Policy, skipDX bool) LayerOutcome {
	if cfg.Cores == 1 {
		return RunBackward(cfg, opts, p, pol, skipDX)
	}
	if skipDX {
		// dW-only layer: batch-split with partial-dW reduction for every
		// policy; the techniques do not apply. It runs as conventional data
		// parallelism: private buffers.
		plan := PartitionLayer(p, WeightSharing, cfg.Cores)
		out := runMultiPlanPolicy(cfg, opts, p, plan, PolBaseline, true, false)
		out.Policy = pol
		out.Dims = p.Dims
		return out
	}

	switch pol {
	case PolBaseline, PolInterleave, PolRearrange:
		plan := PartitionLayer(p, WeightSharing, cfg.Cores)
		out := runMultiPlanPolicy(cfg, opts, p, plan, pol, false, false)
		out.Policy = pol
		out.Dims = p.Dims
		return out
	default: // PolPartition: search the inter-core distribution
		var best LayerOutcome
		first := true
		for _, scheme := range Schemes() {
			plan := PartitionLayer(p, scheme, cfg.Cores)
			cand := runMultiPlanPolicy(cfg, opts, p, plan, PolRearrange, false, true)
			cand.Scheme = scheme
			if first || cand.Cycles < best.Cycles {
				best = cand
				first = false
			}
		}
		best.Policy = PolPartition
		best.Dims = p.Dims
		return best
	}
}

// runMultiPlanPolicy executes the partitions of plan (a partitioning of
// p) concurrently, one per core, with each partition's stream generated
// per the policy, or dW-only for the network's first layer (skipDX).
// Kernel boundaries are synchronized across cores (data parallelism
// launches each gradient kernel on all cores together), so the baseline
// runs as two phases with a shared-SPM flush in between. The reported
// order is the last partition's, as in runPartitionedSingle.
func runMultiPlanPolicy(cfg config.NPU, opts sim.Options, p schedule.TileParams, plan Plan, pol Policy, skipDX, sharedSPM bool) LayerOutcome {
	key := multiKey{kind: memoBackward, pol: pol, skipDX: skipDX}
	for i, sub := range plan.Parts {
		key.orders[i], key.tuned[i] = tunedChoices(cfg, sub, pol, skipDX)
	}
	mr := runMulti(cfg, opts, p, plan, key, sharedSPM, func() [][][]schedule.Op {
		var phases [][][]schedule.Op
		for _, sub := range plan.Parts {
			kernels, _ := BackwardKernels(cfg, sub, pol, skipDX)
			for k, kernel := range kernels {
				if k >= len(phases) {
					phases = append(phases, nil)
				}
				phases[k] = append(phases[k], kernel.Ops)
			}
		}
		return phases
	})
	out := finishMulti(cfg, mr, plan)
	out.Order = key.orders[len(plan.Parts)-1]
	out.Scheme = plan.Scheme
	out.Parts = len(plan.Parts)
	return out
}

func finishMulti(cfg config.NPU, mr sim.MultiResult, plan Plan) LayerOutcome {
	out := LayerOutcome{
		Cycles:     mr.Cycles,
		Traffic:    mr.Traffic,
		SharedHits: mr.SharedHits,
	}
	for _, r := range mr.PerCore {
		out.Compute += r.ComputeCycles
		out.Mem += r.MemCycles
		out.Spills += r.Spills
	}
	if len(mr.PerCore) > 0 {
		out.SPM = mr.PerCore[0].SPM
	}
	out.addReductions(plan.ReduceResults(cfg))
	return out
}

// RunForwardMulti simulates the forward pass on a multi-core NPU using
// batch-basis parallelism (rows of Y are independent, so no reduction).
// Outcomes are memoized per layer shape, like RunBackwardMulti's. Only the
// tracing fields of opts apply; schedule-shaping options are ignored.
func RunForwardMulti(cfg config.NPU, opts sim.Options, p schedule.TileParams) LayerOutcome {
	key := layerKeyFor(cfg, p, memoForward, sim.Options{})
	return memoLayer(key, opts, func() LayerOutcome {
		return runForwardMulti(cfg, opts, p)
	})
}

func runForwardMulti(cfg config.NPU, opts sim.Options, p schedule.TileParams) LayerOutcome {
	if cfg.Cores == 1 {
		return RunForward(cfg, opts, p)
	}
	plan := PartitionLayer(p, WeightSharing, cfg.Cores)
	// The forward pass runs as conventional data parallelism: private
	// per-core buffers.
	fopts := sim.Options{Trace: opts.Trace, TraceLabel: opts.TraceLabel}
	mr := runMulti(cfg, fopts, p, plan, multiKey{kind: memoForward}, false, func() [][][]schedule.Op {
		var streams [][]schedule.Op
		for _, sub := range plan.Parts {
			sub.DWPartial = false // forward pass computes Y, not dW
			streams = append(streams, schedule.Forward(sub).Ops)
		}
		return [][][]schedule.Op{streams}
	})
	out := LayerOutcome{
		Cycles:     mr.Cycles,
		Traffic:    mr.Traffic,
		SharedHits: mr.SharedHits,
		Parts:      len(plan.Parts),
	}
	for _, r := range mr.PerCore {
		out.Compute += r.ComputeCycles
		out.Mem += r.MemCycles
	}
	out.Dims = p.Dims
	return out
}
