package core

import (
	"fmt"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/runner"
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

// RearrangedTuned emits the rearranged (interleaved + reordered) schedule
// with the simulated-best access order.
func RearrangedTuned(cfg config.NPU, p schedule.TileParams) (schedule.Schedule, Order) {
	return RearrangedWithOrder(cfg, p, BestOrderSimulated(cfg, p))
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
// with 2 and 4 partitions, and the fastest wins, ties going to the earlier
// candidate. The candidates are independent simulations and run through
// runner.Map (in order, inline, when traced: a traced run's tracks are
// numbered as they open). A run traced into a summary sink traces every
// candidate too, but each candidate plan simulates only the first time:
// later runs append its folded tracks from the summary memo. (The
// KNN-driven selection the paper evaluates in Section 5 lives in
// SelectSchemeKNN; Figure 12 uses the empirically best plan.)
func RunBackward(cfg config.NPU, opts sim.Options, p schedule.TileParams, pol Policy, skipDX bool) LayerOutcome {
	if pol != PolPartition || skipDX {
		out := runPlan(cfg, opts, p, PartitionLayer(p, NoPartition, 1), pol, skipDX, false, false)
		out.Policy = pol
		return out
	}

	cands := []planCandidate{{scheme: NoPartition}}
	for _, scheme := range Schemes() {
		for _, parts := range []int{2, 4} {
			cands = append(cands, planCandidate{scheme: scheme, parts: parts})
		}
	}
	run := func(c planCandidate) planCandidate {
		if c.scheme == NoPartition {
			c.out, c.ok = RunBackward(cfg, opts, p, PolRearrange, skipDX), true
		} else {
			c.out, c.ok = runPartitionedSingle(cfg, opts, p, c.scheme, c.parts)
		}
		return c
	}
	best := mapCandidates(opts, cands, run)
	for _, c := range best[1:] {
		if c.ok && c.out.Cycles < best[0].out.Cycles {
			best[0] = c
		}
	}
	out := best[0].out
	out.Policy = PolPartition
	return out
}

// planCandidate is one plan of a partition search and, once simulated, its
// outcome (ok is false for a plan that degenerates to one partition).
type planCandidate struct {
	scheme Scheme
	parts  int
	out    LayerOutcome
	ok     bool
}

// mapCandidates simulates a partition search's candidates through
// runner.Map, or in order on the caller when opts traces: trace tracks are
// numbered in the order they open, which must not depend on scheduling.
// Summary-traced candidates served by the summary memo append their
// stored tracks in that same order.
func mapCandidates(opts sim.Options, cands []planCandidate, run func(planCandidate) planCandidate) []planCandidate {
	if opts.Trace == nil {
		return runner.Map(cands, run)
	}
	for i, c := range cands {
		cands[i] = run(c)
	}
	return cands
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
	return runPlan(cfg, opts, p, plan, PolRearrange, false, false, false), true
}

// RunBackwardOrder simulates one layer's backward pass with an explicitly
// chosen access order (used by the Section 4.3 ideal-vs-Algorithm-1 study):
// the unchunked Interleaved(p, o). Results are memoized per layer shape.
func RunBackwardOrder(cfg config.NPU, opts sim.Options, p schedule.TileParams, o Order) LayerOutcome {
	key := layerKeyFor(cfg, p, memoBackwardOrder, opts)
	key.order = o
	return memoLayer(key, opts, func() LayerOutcome {
		out := outcomeFromResult(sim.ExecuteProgram(cfg, opts, orderProgram(p, o)))
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
	return runForwardPlan(cfg, fopts, p, PartitionLayer(p, NoPartition, 1), false)
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
		out := runPlan(cfg, opts, p, plan, PolBaseline, true, true, false)
		out.Policy = pol
		return out
	}

	switch pol {
	case PolBaseline, PolInterleave, PolRearrange:
		plan := PartitionLayer(p, WeightSharing, cfg.Cores)
		out := runPlan(cfg, opts, p, plan, pol, false, true, false)
		out.Policy = pol
		return out
	default: // PolPartition: search the inter-core distribution
		var cands []planCandidate
		for _, scheme := range Schemes() {
			cands = append(cands, planCandidate{scheme: scheme, parts: cfg.Cores})
		}
		best := mapCandidates(opts, cands, func(c planCandidate) planCandidate {
			plan := PartitionLayer(p, c.scheme, c.parts)
			c.out = runPlan(cfg, opts, p, plan, PolRearrange, false, true, true)
			return c
		})
		for _, c := range best[1:] {
			if c.out.Cycles < best[0].out.Cycles {
				best[0] = c
			}
		}
		out := best[0].out
		out.Policy = PolPartition
		return out
	}
}

// outcomeFromMulti sums a multi-core run's per-core results; the SPM
// stats are core 0's (the shared set's, or core 0's own).
func outcomeFromMulti(mr sim.MultiResult) LayerOutcome {
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
	// The forward pass runs as conventional data parallelism: private
	// per-core buffers, each part computing its rows of Y (not a partial
	// dW).
	plan := PartitionLayer(p, WeightSharing, cfg.Cores)
	for i := range plan.Parts {
		plan.Parts[i].DWPartial = false
	}
	fopts := sim.Options{Trace: opts.Trace, TraceLabel: opts.TraceLabel}
	return runForwardPlan(cfg, fopts, p, plan, true)
}
