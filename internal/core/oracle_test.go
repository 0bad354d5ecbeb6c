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
		if cyc := oracleCycles(single, baselineDXOps(single, np, c)); best < 0 || cyc < best {
			best, v.dx = cyc, c
		}
	}
	best = -1
	for _, c := range []dwCandidate{dwKN, dwNK} {
		if cyc := oracleCycles(single, baselineDWOps(single, np, c)); best < 0 || cyc < best {
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
		ops := mergeStreams(nil, baselineDXOps(single, np, v.dx), baselineDWOps(single, np, v.dw), v.block)
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
	return schedule.Schedule{Ops: mergeStreams(nil, baselineDXOps(cfg, p, v.dx), baselineDWOps(cfg, p, v.dw), v.block)}
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

// backward mirrors RunBackward: the policy's kernels (BackwardKernels)
// replayed whole, and for PolPartition the fastest of the rearranged layer
// and every partitioned plan (runPartitionedSingle).
func (o *oracle) backward(cfg config.NPU, p schedule.TileParams, pol Policy, skipDX bool) LayerOutcome {
	if pol != PolPartition || skipDX {
		var scheds []schedule.Schedule
		order := OnlyInterleave
		switch {
		case skipDX:
			scheds = []schedule.Schedule{{Ops: baselineDWOps(cfg, p, o.baseline(cfg, p).dw)}}
		case pol == PolBaseline:
			v := o.baseline(cfg, p)
			scheds = []schedule.Schedule{{Ops: baselineDXOps(cfg, p, v.dx)}, {Ops: baselineDWOps(cfg, p, v.dw)}}
		case pol == PolInterleave:
			scheds = []schedule.Schedule{o.interleaved(cfg, p)}
		default:
			var s schedule.Schedule
			s, order = o.rearranged(cfg, p)
			scheds = []schedule.Schedule{s}
		}
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
