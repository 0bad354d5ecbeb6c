package core

import (
	"slices"

	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/tensor"
)

// The evaluation baseline "includes relevant prior DNN scheduling
// techniques" (Section 6.1): a production scheduler explores loop orders
// and multi-level tilings per GEMM and keeps the fastest. We reproduce
// that by simulating four candidate schedules for each gradient GEMM in
// isolation — the two reduction-inner loop orders plus the two chunked
// partial-stationary orders of the multi-level tiling studies — and
// caching the winner per (configuration, layer shape).

// dxCandidate / dwCandidate index the baseline schedule candidates.
type dxCandidate uint8

const (
	dxMK       dxCandidate = iota // m outer, k middle, reduction inner
	dxKM                          // k outer, m middle, reduction inner
	dxRowChunk                    // row-chunked partial-stationary
	dxColChunk                    // column-chunked partial-stationary
	numDXCandidates
)

type dwCandidate uint8

const (
	dwKN       dwCandidate = iota // k outer, n middle, reduction inner
	dwNK                          // n outer, k middle, reduction inner
	dwRowChunk                    // row-chunked partial-stationary (over K)
	dwColChunk                    // column-chunked partial-stationary (over N)
	numDWCandidates
)

// ordersKey keys the per-shape tuning caches: the hardware fingerprint
// (with Cores pinned to 1, since tuning always simulates a single core)
// plus the shape facts the candidate schedules depend on. Tensor-instance
// ids (TileParams.Layer/Part) are deliberately absent — renaming them
// cannot change which candidate wins.
type ordersKey struct {
	fp      config.Fingerprint
	d       tensor.Dims
	t       schedule.Tiling
	elem    int
	xfactor float64
}

var ordersCache = runner.NewCache[ordersKey, ordersVal]("core/baseline-tune")

type ordersVal struct {
	dx dxCandidate
	dw dwCandidate
	// block is the fusion granularity (ops per stream per turn); only the
	// interleave cache uses it.
	block int
}

func keyFor(cfg config.NPU, p schedule.TileParams) ordersKey {
	cfg.Cores = 1
	return ordersKey{
		fp: cfg.Fingerprint(), d: p.Dims, t: p.Tiling,
		elem: p.ElemBytes, xfactor: p.XFactor,
	}
}

// baselineChunkShare is the fraction of the SPM streaming half a baseline
// partial-stationary chunk may occupy (the rest carries operand bands).
const baselineChunkShare = 0.5

func chunkFor(spmBytes int64, perUnitBytes int64) int {
	if perUnitBytes <= 0 {
		return 1
	}
	share := int64(float64(spmBytes/2) * baselineChunkShare)
	c := int(share / perUnitBytes)
	if c < 1 {
		c = 1
	}
	return c
}

// baselineDXOps emits the dX candidate schedule.
func baselineDXOps(cfg config.NPU, p schedule.TileParams, c dxCandidate) []schedule.Op {
	e := int64(cfg.ElemBytes)
	switch c {
	case dxKM:
		return schedule.BaselineDXOrdered(p, schedule.DXOrderKM)
	case dxRowChunk:
		perRow := int64(p.Tiling.Tm) * int64(p.Dims.K) * e
		return schedule.PartialStationaryDX(p, chunkFor(cfg.SPMBytes, perRow))
	case dxColChunk:
		perCol := int64(p.Dims.M) * int64(p.Tiling.Tk) * e
		return schedule.PartialStationaryDXCols(p, chunkFor(cfg.SPMBytes, perCol))
	default:
		return schedule.BaselineDXOrdered(p, schedule.DXOrderMK)
	}
}

// baselineDWOps emits the dW candidate schedule.
func baselineDWOps(cfg config.NPU, p schedule.TileParams, c dwCandidate) []schedule.Op {
	e := int64(cfg.ElemBytes)
	switch c {
	case dwNK:
		return schedule.BaselineDWOrdered(p, schedule.DWOrderNK)
	case dwRowChunk:
		perRow := int64(p.Tiling.Tk) * int64(p.Dims.N) * e
		return schedule.PartialStationaryDW(p, chunkFor(cfg.SPMBytes, perRow))
	case dwColChunk:
		perCol := int64(p.Dims.K) * int64(p.Tiling.Tn) * e
		return schedule.PartialStationaryDWCols(p, chunkFor(cfg.SPMBytes, perCol))
	default:
		return schedule.BaselineDWOrdered(p, schedule.DWOrderKN)
	}
}

// baselineChoices returns the tuned candidate for each gradient GEMM,
// choosing each GEMM's fastest schedule by simulation. Tuning always runs
// without study-specific engine options so every study compares against the
// same baseline schedule.
func baselineChoices(cfg config.NPU, p schedule.TileParams) ordersVal {
	return ordersCache.GetOrCompute(keyFor(cfg, p), func() ordersVal {
		single := cfg
		single.Cores = 1
		// Candidates are lowered from the canonical shape so their traces
		// are shared; cycle outcomes are renaming-invariant.
		np := tuneParams(p)

		// The baseline explores the two reduction-inner loop orders per GEMM:
		// conventional accelerators (TPUv3 + XLA) accumulate each output tile's
		// reduction inside the PE array, so cross-tile partial-stationary
		// orders (which park partial sums in the SPM) are not part of the
		// baseline space — those appear only through the paper's
		// transformations.
		fam := baselineFamily(single, np)
		var v ordersVal
		best := int64(-1)
		for _, c := range []dxCandidate{dxMK, dxKM} {
			cyc := fam.Result(int(c)).Cycles
			if best < 0 || cyc < best {
				best = cyc
				v.dx = c
			}
		}
		best = -1
		for _, c := range []dwCandidate{dwKN, dwNK} {
			cyc := fam.Result(2 + int(c)).Cycles
			if best < 0 || cyc < best {
				best = cyc
				v.dw = c
			}
		}
		return v
	})
}

// TunedBaselineKernels emits the two schedule-tuned gradient kernels of the
// conventional sequential backward pass: the baseline every evaluation
// figure normalises against. They are separate kernels — the scratchpad is
// flushed between them (Figure 8a), which is why the baseline streams dY
// from DRAM twice.
func TunedBaselineKernels(cfg config.NPU, p schedule.TileParams) (dxK, dwK schedule.Schedule) {
	v := baselineChoices(cfg, p)
	dxK = schedule.Schedule{Name: "baseline-dX", Ops: baselineDXOps(cfg, p, v.dx)}
	dwK = schedule.Schedule{Name: "baseline-dW", Ops: baselineDWOps(cfg, p, v.dw)}
	return dxK, dwK
}

// TunedDWOnly emits the schedule-tuned dW-only pass used for the network's
// first layer (no dX needed).
func TunedDWOnly(cfg config.NPU, p schedule.TileParams) schedule.Schedule {
	v := baselineChoices(cfg, p)
	return schedule.Schedule{Name: "dW-only", Ops: baselineDWOps(cfg, p, v.dw)}
}

// ilvTuned is the joint tuner's winning combination and its makespan,
// which BestOrderSimulated reads instead of re-simulating the winner.
type ilvTuned struct {
	v      ordersVal
	cycles int64
}

// ilvCache holds the jointly tuned order pair for the fused stream.
var ilvCache = runner.NewCache[ordersKey, ilvTuned]("core/interleave-tune")

// interleaveBlocks are the fusion granularities the joint tuner explores:
// how many tile ops of each stream run per alternation turn. Finer blocks
// shorten the dY reuse distance; coarser blocks reduce working-set
// interference between the two streams.
var interleaveBlocks = []int{1, 16, 128}

// mergeCandidates lists np's valid fusion combinations in the joint
// tuner's exploration order, so ties break identically on every path.
func mergeCandidates(np schedule.TileParams) []ordersVal {
	var vs []ordersVal
	dxLen := np.OpCount()
	for _, dc := range []dxCandidate{dxMK, dxKM} {
		for _, wc := range []dwCandidate{dwKN, dwNK} {
			for _, blk := range interleaveBlocks {
				// A block at least as long as a stream degenerates to the
				// sequential baseline; the fusion must actually alternate.
				if blk > 1 && blk >= dxLen {
					continue
				}
				vs = append(vs, ordersVal{dx: dc, dw: wc, block: blk})
			}
		}
	}
	return vs
}

// interleaveChoices picks the per-stream access orders and the fusion
// granularity of the *fused* schedule jointly: fusing the two gradient
// GEMMs makes their working sets share the scratchpad, so the compiler
// co-schedules them — it simulates every (dX order, dW order, granularity)
// combination and keeps the fastest. Each stream still walks dY in a
// traditional order (Figure 10a); only the combination is chosen jointly.
func interleaveChoices(cfg config.NPU, p schedule.TileParams) ordersVal {
	return interleaveTuned(cfg, p).v
}

// interleaveTuned is interleaveChoices plus the winner's makespan.
func interleaveTuned(cfg config.NPU, p schedule.TileParams) ilvTuned {
	return ilvCache.GetOrCompute(keyFor(cfg, p), func() ilvTuned {
		single := cfg
		single.Cores = 1
		np := tuneParams(p)
		// On a bandwidth sweep the family lookup makes this loop pure
		// replays of shared traces (DESIGN.md §3l).
		vs := mergeCandidates(np)
		fam := mergeFamily(single, np, vs)
		best := ilvTuned{cycles: -1}
		for i, v := range vs {
			cyc := fam.Result(i).Cycles
			if best.cycles < 0 || cyc < best.cycles {
				best = ilvTuned{v: v, cycles: cyc}
			}
		}
		return best
	})
}

// mergeStreams appends the two gradient streams to dst, alternating them
// at tile-op granularity, `block` ops per stream per turn. It merges
// emitted ops and lowered code alike.
func mergeStreams[T any](dst, dx, dw []T, block int) []T {
	if block < 1 {
		block = 1
	}
	dst = slices.Grow(dst, len(dx)+len(dw))
	for i := 0; i < len(dx) || i < len(dw); i += block {
		if i < len(dx) {
			dst = append(dst, dx[i:min(i+block, len(dx))]...)
		}
		if i < len(dw) {
			dst = append(dst, dw[i:min(i+block, len(dw))]...)
		}
	}
	return dst
}

// TunedInterleave emits the interleave-only schedule: the gradient streams
// fused 1:1 at tile-op granularity (Section 4.2), each keeping a
// traditional access order, with the pair chosen jointly for the fusion.
func TunedInterleave(cfg config.NPU, p schedule.TileParams) schedule.Schedule {
	v := interleaveChoices(cfg, p)
	dx := baselineDXOps(cfg, p, v.dx)
	dw := baselineDWOps(cfg, p, v.dw)
	return schedule.Schedule{Name: "interleave", Ops: mergeStreams(nil, dx, dw, v.block)}
}

// fusedChunkShare is the fraction of the SPM streaming half granted to the
// completing output's live partials in the chunked major orders; the
// carried output's partials and the operand bands use the rest.
const fusedChunkShare = 0.25

// FusedDXMajor emits the chunked dXmajor schedule sized for cfg.
func FusedDXMajor(cfg config.NPU, p schedule.TileParams) schedule.Schedule {
	perRow := int64(p.Tiling.Tm) * int64(p.Dims.K) * int64(cfg.ElemBytes)
	share := int64(float64(cfg.SPMBytes/2) * fusedChunkShare)
	chunk := int(share / max(perRow, 1))
	return InterleaveDXMajorChunked(p, chunk)
}

// FusedDWMajor emits the chunked dWmajor schedule sized for cfg.
func FusedDWMajor(cfg config.NPU, p schedule.TileParams) schedule.Schedule {
	perCol := int64(p.Dims.K) * int64(p.Tiling.Tn) * int64(cfg.ElemBytes)
	share := int64(float64(cfg.SPMBytes/2) * fusedChunkShare)
	chunk := int(share / max(perCol, 1))
	return InterleaveDWMajorChunked(p, chunk)
}

// reCache holds the simulated-best access order per layer.
var reCache = runner.NewCache[ordersKey, Order]("core/order-tune")

// BestOrderSimulated picks the access order of the rearranged schedule by
// simulating the three candidates of Figure 10 and keeping the fastest —
// the paper's "ideal" order selection (Section 4.3). The static Algorithm 1
// selectors (SelectOrder*, SelectOrderFor) predict this choice from tensor
// dimensions alone; the alg1 experiment quantifies their gap.
func BestOrderSimulated(cfg config.NPU, p schedule.TileParams) Order {
	return reCache.GetOrCompute(keyFor(cfg, p), func() Order {
		single := cfg
		single.Cores = 1
		np := tuneParams(p)
		best := OnlyInterleave
		// The interleave candidate is exactly the joint tuner's winning
		// merge, simulated under this same fingerprint: its recorded
		// makespan stands in, so the winner is neither re-emitted nor
		// re-simulated.
		bestCycles := interleaveTuned(single, np).cycles
		mj := majorFamily(single, np)
		if cyc := mj.Result(0).Cycles; cyc < bestCycles {
			best, bestCycles = DXMajor, cyc
		}
		if cyc := mj.Result(1).Cycles; cyc < bestCycles {
			best = DWMajor
		}
		return best
	})
}
