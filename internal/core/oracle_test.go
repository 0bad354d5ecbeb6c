package core

import (
	"igosim/internal/config"
	"igosim/internal/refmodel"
	"igosim/internal/schedule"
)

// oracle re-derives the tuners' decisions and the layer outcomes of
// RunBackward by emitting every candidate schedule and replaying it through
// the refmodel oracle, in the compiled tuners' exploration order (ties keep
// the earlier candidate). Tuning results are memoized per canonical shape
// within one oracle, as the tuners' caches do.
type oracle struct {
	base  map[schedule.TileParams]ordersVal
	ilv   map[schedule.TileParams]ilvTuned
	order map[schedule.TileParams]Order
}

func newOracle() *oracle {
	return &oracle{
		base:  make(map[schedule.TileParams]ordersVal),
		ilv:   make(map[schedule.TileParams]ilvTuned),
		order: make(map[schedule.TileParams]Order),
	}
}

func oracleCounts(cfg config.NPU, scheds ...schedule.Schedule) refmodel.Counts {
	return refmodel.ReplaySchedules(cfg, refmodel.Options{}, scheds...)
}

func oracleCycles(cfg config.NPU, ops []schedule.Op) int64 {
	return oracleCounts(cfg, schedule.Schedule{Ops: ops}).Cycles
}

func singleCore(cfg config.NPU) config.NPU {
	cfg.Cores = 1
	return cfg
}

// baseline mirrors baselineChoices.
func (o *oracle) baseline(cfg config.NPU, p schedule.TileParams) ordersVal {
	single, np := singleCore(cfg), tuneParams(p)
	if v, ok := o.base[np]; ok {
		return v
	}
	var v ordersVal
	best := int64(-1)
	for _, c := range []dxCandidate{dxMK, dxKM} {
		if cyc := oracleCycles(single, baselineDXOps(np, c)); best < 0 || cyc < best {
			best, v.dx = cyc, c
		}
	}
	best = -1
	for _, c := range []dwCandidate{dwKN, dwNK} {
		if cyc := oracleCycles(single, baselineDWOps(np, c)); best < 0 || cyc < best {
			best, v.dw = cyc, c
		}
	}
	o.base[np] = v
	return v
}

// interleave mirrors interleaveTuned: every fusion candidate, in
// mergeCandidates order.
func (o *oracle) interleave(cfg config.NPU, p schedule.TileParams) ilvTuned {
	single, np := singleCore(cfg), tuneParams(p)
	if t, ok := o.ilv[np]; ok {
		return t
	}
	best := ilvTuned{cycles: -1}
	for _, v := range mergeCandidates(np) {
		ops := mergeStreams(nil, baselineDXOps(np, v.dx), baselineDWOps(np, v.dw), v.block)
		if cyc := oracleCycles(single, ops); best.cycles < 0 || cyc < best.cycles {
			best = ilvTuned{v: v, cycles: cyc}
		}
	}
	o.ilv[np] = best
	return best
}

// bestOrder mirrors BestOrderSimulated.
func (o *oracle) bestOrder(cfg config.NPU, p schedule.TileParams) Order {
	single, np := singleCore(cfg), tuneParams(p)
	if ord, ok := o.order[np]; ok {
		return ord
	}
	best, bestCycles := OnlyInterleave, o.interleave(single, np).cycles
	if cyc := oracleCycles(single, FusedDXMajor(single, np).Ops); cyc < bestCycles {
		best, bestCycles = DXMajor, cyc
	}
	if cyc := oracleCycles(single, FusedDWMajor(single, np).Ops); cyc < bestCycles {
		best = DWMajor
	}
	o.order[np] = best
	return best
}

// interleaved emits the interleave-only schedule from the oracle's choice.
func (o *oracle) interleaved(cfg config.NPU, p schedule.TileParams) schedule.Schedule {
	v := o.interleave(cfg, p).v
	return schedule.Schedule{Ops: mergeStreams(nil, baselineDXOps(p, v.dx), baselineDWOps(p, v.dw), v.block)}
}

// rearranged mirrors RearrangedTuned.
func (o *oracle) rearranged(cfg config.NPU, p schedule.TileParams) (schedule.Schedule, Order) {
	switch ord := o.bestOrder(cfg, p); ord {
	case DXMajor:
		return FusedDXMajor(cfg, p), ord
	case DWMajor:
		return FusedDWMajor(cfg, p), ord
	default:
		return o.interleaved(cfg, p), OnlyInterleave
	}
}

func outcomeFromCounts(c refmodel.Counts) LayerOutcome {
	out := LayerOutcome{
		Cycles:  c.Cycles,
		Compute: c.ComputeCycles,
		Mem:     c.MemCycles,
		Traffic: c.Traffic,
		Spills:  c.Spills,
	}
	out.SPM.Hits, out.SPM.Misses, out.SPM.Evictions = c.Hits, c.Misses, c.Evictions
	return out
}

// kernels emits p's kernels under pol, dW-only when skipDX, from the
// oracle's choices, as BackwardKernels emits the tuned ones, with the
// access order they report.
func (o *oracle) kernels(cfg config.NPU, p schedule.TileParams, pol Policy, skipDX bool) ([]schedule.Schedule, Order) {
	switch {
	case skipDX:
		return []schedule.Schedule{{Ops: baselineDWOps(p, o.baseline(cfg, p).dw)}}, OnlyInterleave
	case pol == PolBaseline:
		v := o.baseline(cfg, p)
		return []schedule.Schedule{{Ops: baselineDXOps(p, v.dx)}, {Ops: baselineDWOps(p, v.dw)}}, OnlyInterleave
	case pol == PolInterleave:
		return []schedule.Schedule{o.interleaved(cfg, p)}, OnlyInterleave
	default:
		s, order := o.rearranged(cfg, p)
		return []schedule.Schedule{s}, order
	}
}

// backward mirrors RunBackward: the policy's kernels replayed whole, and
// for PolPartition the fastest of the rearranged layer and every
// partitioned plan (runPartitionedSingle).
func (o *oracle) backward(cfg config.NPU, p schedule.TileParams, pol Policy, skipDX bool) LayerOutcome {
	if pol != PolPartition || skipDX {
		scheds, order := o.kernels(cfg, p, pol, skipDX)
		out := outcomeFromCounts(oracleCounts(cfg, scheds...))
		out.Dims, out.Policy, out.Order, out.Scheme, out.Parts = p.Dims, pol, order, NoPartition, 1
		return out
	}
	best := o.backward(cfg, p, PolRearrange, false)
	best.Policy = PolPartition
	for _, scheme := range Schemes() {
		for _, parts := range []int{2, 4} {
			plan := PartitionLayer(p, scheme, parts)
			if len(plan.Parts) < 2 {
				continue
			}
			scheds := make([]schedule.Schedule, len(plan.Parts))
			var order Order
			for i, sub := range plan.Parts {
				scheds[i], order = o.rearranged(cfg, sub)
			}
			cand := outcomeFromCounts(oracleCounts(cfg, scheds...))
			cand.addReductions(plan.ReduceResults(cfg))
			cand.Dims, cand.Policy, cand.Order, cand.Scheme, cand.Parts = p.Dims, PolPartition, order, scheme, len(plan.Parts)
			if cand.Cycles < best.Cycles {
				best = cand
			}
		}
	}
	return best
}

// backwardMulti mirrors runBackwardMulti on a multi-core cfg: dW-only
// layers and the baseline, interleave and rearrange policies run a
// weight-sharing data-parallel plan on private buffers, and PolPartition
// takes the fastest of the three schemes on a shared scratchpad, ties
// going to the earlier scheme.
func (o *oracle) backwardMulti(cfg config.NPU, p schedule.TileParams, pol Policy, skipDX bool) LayerOutcome {
	if skipDX || pol != PolPartition {
		kpol := pol
		if skipDX {
			kpol = PolBaseline
		}
		out := o.multiPlan(cfg, p, PartitionLayer(p, WeightSharing, cfg.Cores), kpol, skipDX, false)
		out.Policy = pol
		return out
	}
	var best LayerOutcome
	for i, scheme := range Schemes() {
		cand := o.multiPlan(cfg, p, PartitionLayer(p, scheme, cfg.Cores), PolRearrange, false, true)
		if i == 0 || cand.Cycles < best.Cycles {
			best = cand
		}
	}
	best.Policy = PolPartition
	return best
}

// multiPlan mirrors runChosenPlan's multi-core run: part i's kernels from
// the oracle's choices on core i, kernel k of every part as phase k,
// replayed by refmodel.ReplayMulti, plus the plan's reductions.
func (o *oracle) multiPlan(cfg config.NPU, p schedule.TileParams, plan Plan, pol Policy, skipDX, shared bool) LayerOutcome {
	parts := make([][]schedule.Schedule, len(plan.Parts))
	var order Order
	for i, sub := range plan.Parts {
		parts[i], order = o.kernels(cfg, sub, pol, skipDX)
	}
	mc := refmodel.ReplayMulti(cfg, refmodel.Options{}, partPhases(parts), shared)
	out := LayerOutcome{Cycles: mc.Cycles, Traffic: mc.Traffic, SharedHits: mc.SharedHits}
	for _, c := range mc.PerCore {
		out.Compute += c.ComputeCycles
		out.Mem += c.MemCycles
		out.Spills += c.Spills
	}
	out.SPM.Hits, out.SPM.Misses, out.SPM.Evictions = mc.PerCore[0].Hits, mc.PerCore[0].Misses, mc.PerCore[0].Evictions
	out.addReductions(plan.ReduceResults(cfg))
	out.Dims, out.Order, out.Scheme, out.Parts = p.Dims, order, plan.Scheme, len(plan.Parts)
	return out
}
