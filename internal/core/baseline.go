package core

import (
	"slices"

	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

// The evaluation baseline "includes relevant prior DNN scheduling
// techniques" (Section 6.1): a production scheduler explores loop orders
// per GEMM and keeps the fastest. We reproduce that by simulating the two
// reduction-inner loop orders of each gradient GEMM in isolation and
// caching the winner per (configuration, layer shape). The chunked
// partial-stationary orders of the multi-level tiling studies park partial
// sums in the SPM, which conventional accelerators do not, so they are not
// baseline candidates (see baselineChoices).

// dxCandidate / dwCandidate index the baseline schedule candidates.
type dxCandidate uint8

const (
	dxMK dxCandidate = iota // m outer, k middle, reduction inner
	dxKM                    // k outer, m middle, reduction inner
)

type dwCandidate uint8

const (
	dwKN dwCandidate = iota // k outer, n middle, reduction inner
	dwNK                    // n outer, k middle, reduction inner
)

// Each GEMM's candidate orders, in exploration order.
var (
	dxOrders = []dxCandidate{dxMK, dxKM}
	dwOrders = []dwCandidate{dwKN, dwNK}
)

// dxCandidates lists p's distinct dX candidates in exploration order. The
// two orders differ only in which of the m and k loops is outer, so on a
// grid with one tile along either axis dxKM is dxMK's walk and is left out.
// The tuners keep the earlier candidate on a tie, so leaving out a later
// duplicate never changes their choice. Callers must not modify the list.
func dxCandidates(p schedule.TileParams) []dxCandidate {
	mt, kt, _ := p.Tiling.Counts(p.Dims)
	if mt == 1 || kt == 1 {
		return dxOrders[:1]
	}
	return dxOrders
}

// dwCandidates lists p's distinct dW candidates in exploration order, as
// dxCandidates does dX's: dwNK is dwKN's walk when the k or n axis has one
// tile.
func dwCandidates(p schedule.TileParams) []dwCandidate {
	_, kt, nt := p.Tiling.Counts(p.Dims)
	if kt == 1 || nt == 1 {
		return dwOrders[:1]
	}
	return dwOrders
}

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

var ordersCache = runner.NewCache[ordersKey, baselineTuned]("core/baseline-tune")

type ordersVal struct {
	dx dxCandidate
	dw dwCandidate
}

// baselineTuned is the baseline tuner's cache value: its choices and,
// when its family's members ran for it rather than replaying cached
// traces, the winners' runs as plan phases, dX then dW (compose.go).
type baselineTuned struct {
	ordersVal
	phases *[2]sim.Phase
}

func keyFor(cfg config.NPU, p schedule.TileParams) ordersKey {
	cfg.Cores = 1
	return ordersKey{
		fp: cfg.Fingerprint(), d: p.Dims, t: p.Tiling,
		elem: p.ElemBytes, xfactor: p.XFactor,
	}
}

// baselineDXOps emits the dX candidate schedule.
func baselineDXOps(p schedule.TileParams, c dxCandidate) []schedule.Op {
	if c == dxKM {
		return schedule.BaselineDXOrdered(p, schedule.DXOrderKM)
	}
	return schedule.BaselineDXOrdered(p, schedule.DXOrderMK)
}

// baselineDWOps emits the dW candidate schedule.
func baselineDWOps(p schedule.TileParams, c dwCandidate) []schedule.Op {
	if c == dwNK {
		return schedule.BaselineDWOrdered(p, schedule.DWOrderNK)
	}
	return schedule.BaselineDWOrdered(p, schedule.DWOrderKN)
}

// baselineChoices returns the tuned candidate for each gradient GEMM,
// choosing each GEMM's fastest schedule by simulation. Tuning always runs
// without study-specific engine options so every study compares against the
// same baseline schedule.
func baselineChoices(cfg config.NPU, p schedule.TileParams) ordersVal {
	return baselineTune(cfg, p).ordersVal
}

// baselineTune is baselineChoices with the winners' phases.
func baselineTune(cfg config.NPU, p schedule.TileParams) baselineTuned {
	return ordersCache.GetOrCompute(keyFor(cfg, p), func() baselineTuned {
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
		dxs, dws := dxCandidates(np), dwCandidates(np)
		fam := tunerFamily(single, np, famBaseline, baselineFamily(dxs, dws))
		var t baselineTuned
		var win [2]sim.Phase
		best := int64(-1)
		for i, c := range dxs {
			if ph := fam.Phase(i); best < 0 || ph.Res.Cycles < best {
				best, t.dx, win[0] = ph.Res.Cycles, c, ph
			}
		}
		best = -1
		for i, c := range dws {
			if ph := fam.Phase(len(dxs) + i); best < 0 || ph.Res.Cycles < best {
				best, t.dw, win[1] = ph.Res.Cycles, c, ph
			}
		}
		if !fam.Replayed() {
			t.phases = &win
		}
		return t
	})
}

// TunedBaselineKernels emits the two schedule-tuned gradient kernels of the
// conventional sequential backward pass: the baseline every evaluation
// figure normalises against. They are separate kernels — the scratchpad is
// flushed between them (Figure 8a), which is why the baseline streams dY
// from DRAM twice.
func TunedBaselineKernels(cfg config.NPU, p schedule.TileParams) (dxK, dwK schedule.Schedule) {
	v := baselineChoices(cfg, p)
	dxK = schedule.Schedule{Name: "baseline-dX", Ops: baselineDXOps(p, v.dx)}
	dwK = schedule.Schedule{Name: "baseline-dW", Ops: baselineDWOps(p, v.dw)}
	return dxK, dwK
}

// TunedDWOnly emits the schedule-tuned dW-only pass used for the network's
// first layer (no dX needed).
func TunedDWOnly(cfg config.NPU, p schedule.TileParams) schedule.Schedule {
	v := baselineChoices(cfg, p)
	return schedule.Schedule{Name: "dW-only", Ops: baselineDWOps(p, v.dw)}
}

// ilvTuned is the joint tuner's winning fusion kernel and its makespan,
// which BestOrderSimulated reads instead of re-simulating the winner.
type ilvTuned struct {
	kernel recipe
	cycles int64
}

// ilvEntry is the joint tuner's cache value: its winner and, when its
// family's members ran for it, the winner's run as a plan phase.
type ilvEntry struct {
	ilvTuned
	phase *sim.Phase
}

// ilvCache holds the jointly tuned fusion kernel.
var ilvCache = runner.NewCache[ordersKey, ilvEntry]("core/interleave-tune")

// interleaveBlocks are the fusion granularities the joint tuner explores:
// how many tile ops of each stream run per alternation turn. Finer blocks
// shorten the dY reuse distance; coarser blocks reduce working-set
// interference between the two streams. Each fits a recipe's uint8 block.
var interleaveBlocks = []int{1, 16, 128}

// mergeCandidates lists np's distinct fusion kernels in the joint tuner's
// exploration order, so ties break identically on every path: each
// distinct dX order (dxCandidates) with each distinct dW order
// (dwCandidates) at each valid block size. Two merges of different streams
// or blocks differ, so no two kernels build the same program.
func mergeCandidates(np schedule.TileParams) []recipe {
	var vs []recipe
	dxLen := np.OpCount()
	for _, dc := range dxCandidates(np) {
		for _, wc := range dwCandidates(np) {
			for _, blk := range interleaveBlocks {
				// A block at least as long as a stream degenerates to the
				// sequential baseline; the fusion must actually alternate.
				if blk > 1 && blk >= dxLen {
					continue
				}
				vs = append(vs, recipe{kind: kInterleave, dx: dc, dw: wc, block: uint8(blk)})
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
// The choice is returned as the fusion kernel.
func interleaveChoices(cfg config.NPU, p schedule.TileParams) recipe {
	return interleaveTuned(cfg, p).kernel
}

// interleaveTuned is interleaveChoices plus the winner's makespan.
func interleaveTuned(cfg config.NPU, p schedule.TileParams) ilvTuned {
	return interleaveTune(cfg, p).ilvTuned
}

// interleaveTune is interleaveTuned with the winner's phase.
func interleaveTune(cfg config.NPU, p schedule.TileParams) ilvEntry {
	return ilvCache.GetOrCompute(keyFor(cfg, p), func() ilvEntry {
		single := cfg
		single.Cores = 1
		np := tuneParams(p)
		// On a bandwidth sweep the family lookup makes this loop pure
		// replays of shared traces (DESIGN.md §3l).
		vs := mergeCandidates(np)
		fam := tunerFamily(single, np, famMerge, vs)
		best := ilvTuned{cycles: -1}
		var win sim.Phase
		for i, v := range vs {
			if ph := fam.Phase(i); best.cycles < 0 || ph.Res.Cycles < best.cycles {
				best, win = ilvTuned{kernel: v, cycles: ph.Res.Cycles}, ph
			}
		}
		e := ilvEntry{ilvTuned: best}
		if !fam.Replayed() {
			e.phase = &win
		}
		return e
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
	dx := baselineDXOps(p, v.dx)
	dw := baselineDWOps(p, v.dw)
	return schedule.Schedule{Name: "interleave", Ops: mergeStreams(nil, dx, dw, int(v.block))}
}

// fusedChunkShare is the fraction of the SPM streaming half granted to the
// completing output's live partials in the chunked major orders; the
// carried output's partials and the operand bands use the rest.
const fusedChunkShare = 0.25

// FusedDXMajor emits the chunked dXmajor schedule sized for cfg.
func FusedDXMajor(cfg config.NPU, p schedule.TileParams) schedule.Schedule {
	return InterleaveDXMajorChunked(p, dxMajorChunk(cfg, p))
}

// FusedDWMajor emits the chunked dWmajor schedule sized for cfg.
func FusedDWMajor(cfg config.NPU, p schedule.TileParams) schedule.Schedule {
	return InterleaveDWMajorChunked(p, dwMajorChunk(cfg, p))
}

// dxMajorChunk is FusedDXMajor's chunk: the dX tile-rows whose live
// partials fit the completing output's share of the SPM.
func dxMajorChunk(cfg config.NPU, p schedule.TileParams) int {
	perRow := int64(p.Tiling.Tm) * int64(p.Dims.K) * int64(cfg.ElemBytes)
	share := int64(float64(cfg.SPMBytes/2) * fusedChunkShare)
	return int(share / max(perRow, 1))
}

// dwMajorChunk is FusedDWMajor's chunk, in dW tile-columns.
func dwMajorChunk(cfg config.NPU, p schedule.TileParams) int {
	perCol := int64(p.Dims.K) * int64(p.Tiling.Tn) * int64(cfg.ElemBytes)
	share := int64(float64(cfg.SPMBytes/2) * fusedChunkShare)
	return int(share / max(perCol, 1))
}

// orderTuned is the order tuner's cache value: the simulated-best order
// and, when the major family's members ran for it, both majors' runs as
// plan phases, dXmajor then dWmajor — an OrderSelector may pick either.
type orderTuned struct {
	order  Order
	majors *[2]sim.Phase
}

// reCache holds the simulated-best access order per layer.
var reCache = runner.NewCache[ordersKey, orderTuned]("core/order-tune")

// BestOrderSimulated picks the access order of the rearranged schedule by
// simulating the three candidates of Figure 10 and keeping the fastest —
// the paper's "ideal" order selection (Section 4.3). The static Algorithm 1
// selectors (SelectOrder*, SelectOrderFor) predict this choice from tensor
// dimensions alone; the alg1 experiment quantifies their gap.
func BestOrderSimulated(cfg config.NPU, p schedule.TileParams) Order {
	return orderTune(cfg, p).order
}

// orderTune is BestOrderSimulated with the majors' phases.
func orderTune(cfg config.NPU, p schedule.TileParams) orderTuned {
	return reCache.GetOrCompute(keyFor(cfg, p), func() orderTuned {
		single := cfg
		single.Cores = 1
		np := tuneParams(p)
		best := OnlyInterleave
		// The interleave candidate is exactly the joint tuner's winning
		// merge, simulated under this same fingerprint: its recorded
		// makespan stands in, so the winner is neither re-emitted nor
		// re-simulated.
		bestCycles := interleaveTuned(single, np).cycles
		mj := tunerFamily(single, np, famMajor, majorFamily(single, np))
		majors := [2]sim.Phase{mj.Phase(0), mj.Phase(1)}
		if cyc := majors[0].Res.Cycles; cyc < bestCycles {
			best, bestCycles = DXMajor, cyc
		}
		if cyc := majors[1].Res.Cycles; cyc < bestCycles {
			best = DWMajor
		}
		t := orderTuned{order: best}
		if !mj.Replayed() {
			t.majors = &majors
		}
		return t
	})
}
