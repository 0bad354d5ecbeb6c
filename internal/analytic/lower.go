package analytic

import (
	"igosim/internal/config"
	"igosim/internal/schedule"
	"igosim/internal/systolic"
)

// This file holds the integer-exact lower bounds the design-space pruner
// (internal/dse) is built on. Unlike LayerModel's float estimates, these
// are theorem-backed against the engine's own accounting:
//
//   - Traffic floors sum the engine's per-tile byte accounting (including
//     the im2col XFactor truncation) over the distinct-tile grid, so they
//     equal BoundsOf on an unpartitioned stream. Every schedule the tree
//     generates covers the parent tile grid exactly once per GEMM
//     (proptest's CheckCoverage), so each distinct tile is fetched and each
//     output written at least once whatever the policy, partitioning or
//     scratchpad behaviour — the floor never exceeds simulated traffic.
//   - Compute totals sum systolic.TileCycles over the same grid. The
//     compute stage is serial per core and every transformation is a
//     permutation of the parent op multiset, so the per-core makespan is at
//     least the per-core mean of the total.
//   - Memory-stage floors convert byte floors to cycles through the
//     channel model: each TransferCycles call rounds (not ceils) its
//     bandwidth term, undershooting by at most 1/2 cycle, but charges at
//     least one burst latency whenever it moves bytes, so with a non-zero
//     DRAM latency the rounding loss is always covered. With zero latency
//     the caller supplies an upper bound on the number of transfer calls
//     and half of it is subtracted.
//
// The bound-never-exceeds-simulation property is enforced over the
// generator's GEMM x tiling x config space by proptest's CheckAnalyticBounds.
type PassBounds struct {
	// Compute is the exact total compute-cycle count of the pass's tile
	// ops (summed over all cores; order- and policy-independent).
	Compute int64
	// Mem lower-bounds the summed DMA-stage cycles across all cores.
	Mem int64
	// Cycles lower-bounds the pass makespan.
	Cycles int64
	// Traffic lower-bounds the total DRAM bytes moved (reads + writes).
	Traffic int64
	// TrafficSeq, MemSeq and CyclesSeq are the same bounds for the
	// *sequential* two-kernel baseline, which stages dY once per gradient
	// kernel (Figure 4): its floor gains one extra dY sweep. For a dW-only
	// layer they equal Traffic/Mem/Cycles.
	TrafficSeq int64
	MemSeq     int64
	CyclesSeq  int64
}

// Floors carries the distinct-tile byte totals and per-kernel compute
// totals of one layer under a tiling — the integer counterparts of
// LayerModel's float estimates, exact against the engine's accounting.
type Floors struct {
	// Per-tensor distinct-tile bytes (X and DX include the XFactor
	// truncation the engine applies per tile).
	X, W, Y, DY, DX, DW int64
	// Exact compute-cycle sums of each kernel's tile-op grid.
	CompFwd, CompDX, CompDW int64
	// MinX, MinW, MinDY are the smallest single-tile byte sizes of each
	// operand tensor over the distinct-tile grid — the least any op's cold
	// fetch of that operand can move (pipeline-fill term, see passBounds).
	MinX, MinW, MinDY int64
	// FillFwd, FillDX, FillDW are the smallest single-op compute-cycle
	// counts of each kernel's grid — the least compute the pipeline's last
	// op can add after the final DMA transfer completes.
	FillFwd, FillDX, FillDW int64
	// Mt, Kt, Nt are the tile-grid counts; Ops is their product, the op
	// count of one full GEMM grid.
	Mt, Kt, Nt, Ops int64
}

// tileIndices returns representative tile indices and multiplicities for
// one dimension: index 0 stands for the dim/tile full-size tiles, index
// dim/tile for the single edge tile (count zero when the tile divides the
// dimension, or when the dimension is smaller than the tile and only the
// edge exists).
func tileIndices(dim, tile int) (idx [2]int, cnt [2]int64) {
	n := dim / tile
	idx = [2]int{0, n}
	cnt = [2]int64{int64(n), 0}
	if dim-n*tile > 0 {
		cnt[1] = 1
	}
	return idx, cnt
}

// tensorFloor sums the distinct-tile bytes of one two-dimensional tensor
// through its TileParams accessor, so the floor uses the engine's own
// per-tile byte accounting (XFactor truncation included) instead of
// re-deriving it.
func tensorFloor(d1, t1, d2, t2 int, tile func(i, j int) schedule.Tile) int64 {
	i1, c1 := tileIndices(d1, t1)
	i2, c2 := tileIndices(d2, t2)
	var s int64
	for a := range i1 {
		for b := range i2 {
			if c1[a] == 0 || c2[b] == 0 {
				continue
			}
			s += c1[a] * c2[b] * tile(i1[a], i2[b]).Bytes
		}
	}
	return s
}

// tensorMin returns the smallest distinct-tile byte size of one
// two-dimensional tensor (the edge tiles are the candidates besides the
// full tile; every schedule's op fetches whole grid tiles, so no transfer
// of the tensor moves fewer bytes).
func tensorMin(d1, t1, d2, t2 int, tile func(i, j int) schedule.Tile) int64 {
	i1, c1 := tileIndices(d1, t1)
	i2, c2 := tileIndices(d2, t2)
	m := int64(-1)
	for a := range i1 {
		for b := range i2 {
			if c1[a] == 0 || c2[b] == 0 {
				continue
			}
			if v := tile(i1[a], i2[b]).Bytes; m < 0 || v < m {
				m = v
			}
		}
	}
	if m < 0 {
		return 0
	}
	return m
}

// clipSizes returns the distinct tile extents and multiplicities of one
// dimension (full tiles and the edge tile).
func clipSizes(dim, tile int) (sz [2]int, cnt [2]int64) {
	n := dim / tile
	sz = [2]int{tile, dim - n*tile}
	cnt = [2]int64{int64(n), 0}
	if sz[1] > 0 {
		cnt[1] = 1
	}
	return sz, cnt
}

// gridCompute sums f over the mt x kt x nt tile grid, evaluating f once
// per distinct (cm, ck, cn) extent combination (at most eight).
func gridCompute(d schedule.Dims, t schedule.Tiling, f func(cm, ck, cn int) int64) int64 {
	ms, mc := clipSizes(d.M, t.Tm)
	ks, kc := clipSizes(d.K, t.Tk)
	ns, nc := clipSizes(d.N, t.Tn)
	var s int64
	for a := range ms {
		for b := range ks {
			for c := range ns {
				n := mc[a] * kc[b] * nc[c]
				if n == 0 {
					continue
				}
				s += n * f(ms[a], ks[b], ns[c])
			}
		}
	}
	return s
}

// gridMin returns the minimum of f over the distinct (cm, ck, cn) extent
// combinations of the mt x kt x nt tile grid (at most eight).
func gridMin(d schedule.Dims, t schedule.Tiling, f func(cm, ck, cn int) int64) int64 {
	ms, mc := clipSizes(d.M, t.Tm)
	ks, kc := clipSizes(d.K, t.Tk)
	ns, nc := clipSizes(d.N, t.Tn)
	m := int64(-1)
	for a := range ms {
		for b := range ks {
			for c := range ns {
				if mc[a] == 0 || kc[b] == 0 || nc[c] == 0 {
					continue
				}
				if v := f(ms[a], ks[b], ns[c]); m < 0 || v < m {
					m = v
				}
			}
		}
	}
	if m < 0 {
		return 0
	}
	return m
}

// FloorsOf computes the layer's distinct-tile byte totals and exact
// per-kernel compute totals under cfg's array timing. p must be the
// unpartitioned parent parameters (zero offsets, no partial redirects).
func FloorsOf(cfg config.NPU, p schedule.TileParams) Floors {
	d, t := p.Dims, p.Tiling
	arr := systolic.New(cfg)
	mt, kt, nt := t.Counts(d)
	f := Floors{
		X:  tensorFloor(d.M, t.Tm, d.K, t.Tk, func(i, j int) schedule.Tile { return p.XTile(i, j) }),
		W:  tensorFloor(d.K, t.Tk, d.N, t.Tn, func(i, j int) schedule.Tile { return p.WTile(i, j) }),
		Y:  tensorFloor(d.M, t.Tm, d.N, t.Tn, func(i, j int) schedule.Tile { return p.YTile(i, j) }),
		DY: tensorFloor(d.M, t.Tm, d.N, t.Tn, func(i, j int) schedule.Tile { return p.DYTile(i, j) }),
		DX: tensorFloor(d.M, t.Tm, d.K, t.Tk, func(i, j int) schedule.Tile { return p.DXTile(i, j) }),
		DW: tensorFloor(d.K, t.Tk, d.N, t.Tn, func(i, j int) schedule.Tile { return p.DWTile(i, j) }),
		Mt: int64(mt), Kt: int64(kt), Nt: int64(nt),
		Ops: int64(mt) * int64(kt) * int64(nt),
	}
	// Op tile-GEMM extents per kind (see DXOp/DWOp: the reduction dimension
	// of dX is N and of dW is M, so the TileCycles arguments permute).
	f.CompFwd = gridCompute(d, t, func(cm, ck, cn int) int64 { return arr.TileCycles(cm, ck, cn) })
	f.CompDX = gridCompute(d, t, func(cm, ck, cn int) int64 { return arr.TileCycles(cm, cn, ck) })
	f.CompDW = gridCompute(d, t, func(cm, ck, cn int) int64 { return arr.TileCycles(ck, cm, cn) })
	f.MinX = tensorMin(d.M, t.Tm, d.K, t.Tk, func(i, j int) schedule.Tile { return p.XTile(i, j) })
	f.MinW = tensorMin(d.K, t.Tk, d.N, t.Tn, func(i, j int) schedule.Tile { return p.WTile(i, j) })
	f.MinDY = tensorMin(d.M, t.Tm, d.N, t.Tn, func(i, j int) schedule.Tile { return p.DYTile(i, j) })
	f.FillFwd = gridMin(d, t, func(cm, ck, cn int) int64 { return arr.TileCycles(cm, ck, cn) })
	f.FillDX = gridMin(d, t, func(cm, ck, cn int) int64 { return arr.TileCycles(cm, cn, ck) })
	f.FillDW = gridMin(d, t, func(cm, ck, cn int) int64 { return arr.TileCycles(ck, cm, cn) })
	return f
}

// MemFloorCycles lower-bounds the DMA-stage cycles of moving at least
// `bytes` through cfg's per-core channel in at most `calls` TransferCycles
// invocations. One cycle of slack absorbs float rounding differences
// between this closed form and the engine's per-call arithmetic.
func MemFloorCycles(cfg config.NPU, bytes, calls int64) int64 {
	bpc := cfg.BytesPerCycle()
	if bpc <= 0 || bytes <= 0 {
		return 0
	}
	lb := float64(bytes) / bpc
	if cfg.DRAMLatency == 0 {
		// Each call's bandwidth term rounds to nearest: up to 1/2 cycle
		// under per call, uncompensated when no burst latency is charged.
		lb -= float64(calls) / 2
	}
	flb := int64(lb) - 1
	if flb < 0 {
		return 0
	}
	return flb
}

// passBounds assembles PassBounds from byte floors and an exact compute
// total. Multi-core makespans are bounded by the per-core mean of each
// stage: partitions cover the parent grid exactly once, so the summed
// per-core compute equals the parent total, and aggregate traffic still
// meets the distinct-tile floor (each core's channel has cfg.BytesPerCycle
// of its own).
//
// Single-core makespans additionally carry the pipeline-fill terms
// (ROADMAP §3). The engine's per-op recurrence places each op's DMA block
// before its compute block, so on one core:
//
//   - the first op's operands are fetched cold before any compute starts
//     (fillMem lower-bounds that DMA prefix: the smallest cold operand
//     fetch any first op can make), hence makespan >= fillMem + comp;
//   - the last grid op's compute runs after its DMA block, which is after
//     every earlier transfer, hence makespan >= mem + fillComp (partition
//     reductions are costed outside the op stream, so the stream's last op
//     is always a grid op).
//
// Multi-core runs keep the per-core-mean form: a core's first op may reuse
// another partition's timing slack, and the fill terms are per-stream, not
// per-mean.
func passBounds(cfg config.NPU, comp, bytes, bytesSeq, calls, fillMem, fillComp int64) PassBounds {
	cores := int64(cfg.Cores)
	if cores < 1 {
		cores = 1
	}
	mem := MemFloorCycles(cfg, bytes, calls)
	memSeq := MemFloorCycles(cfg, bytesSeq, calls)
	cycles := max(comp/cores, mem/cores)
	cyclesSeq := max(comp/cores, memSeq/cores)
	if cores == 1 {
		cycles = max(comp+fillMem, mem+fillComp)
		cyclesSeq = max(comp+fillMem, memSeq+fillComp)
	}
	return PassBounds{
		Compute:    comp,
		Mem:        mem,
		Cycles:     cycles,
		Traffic:    bytes,
		TrafficSeq: bytesSeq,
		MemSeq:     memSeq,
		CyclesSeq:  cyclesSeq,
	}
}

// Forward assembles the forward-pass bounds (Y = X x W): X and W read at
// least once per distinct tile, Y written exactly once. Separated from
// FloorsOf so sweeps can cache the tiling-dependent floors and reassemble
// bounds cheaply as bandwidth-only axes vary.
func (f Floors) Forward(cfg config.NPU) PassBounds {
	bytes := f.X + f.W + f.Y
	// The first forward op fetches one X and one W tile cold (two calls).
	fillMem := MemFloorCycles(cfg, f.MinX+f.MinW, 2)
	return passBounds(cfg, f.CompFwd, bytes, bytes, f.Ops, fillMem, f.FillFwd)
}

// ForwardBounds lower-bounds one layer's forward pass.
func ForwardBounds(cfg config.NPU, p schedule.TileParams) PassBounds {
	return FloorsOf(cfg, p).Forward(cfg)
}

// BackwardBounds lower-bounds one layer's backward pass under any policy
// the tree generates. skipDX marks first layers that compute only dW.
// The transfer-call budget behind the zero-latency mem floor covers kernel
// streams (which have exactly one call per grid op); partition reduction
// phases add calls, so with DRAMLatency == 0 the Mem/Cycles legs are
// certified for unpartitioned policies only — every sweep configuration
// models a non-zero burst latency, where the floor holds unconditionally.
// freeDY mirrors sim.Options.FreeDYOnDW, the Section 3.3 limit study whose
// dW-kernel dY fetches are free: the dY floor is dropped entirely then,
// because a free fetch can make the tile resident for later counted uses.
func BackwardBounds(cfg config.NPU, p schedule.TileParams, skipDX, freeDY bool) PassBounds {
	return FloorsOf(cfg, p).Backward(cfg, skipDX, freeDY)
}

// Backward assembles the backward-pass bounds from precomputed floors (see
// BackwardBounds for semantics).
func (f Floors) Backward(cfg config.NPU, skipDX, freeDY bool) PassBounds {
	var reads, writes, comp, calls, fillBytes, fillComp int64
	if skipDX {
		reads = f.X
		if !freeDY {
			reads += f.DY
		}
		writes = f.DW
		comp = f.CompDW
		calls = f.Ops
		// A dW op fetches dY and X cold; under freeDY the dY fetch is free.
		fillBytes = f.MinX
		if !freeDY {
			fillBytes += f.MinDY
		}
		fillComp = f.FillDW
	} else {
		reads = f.X + f.W
		if !freeDY {
			reads += f.DY
		}
		writes = f.DX + f.DW
		comp = f.CompDX + f.CompDW
		calls = 2 * f.Ops
		// The first op is either dX (fetching dY+W) or dW (fetching dY+X);
		// under freeDY the dW kernel's dY fetches cost nothing.
		if freeDY {
			fillBytes = min(f.MinDY+f.MinW, f.MinX)
		} else {
			fillBytes = f.MinDY + min(f.MinW, f.MinX)
		}
		fillComp = min(f.FillDX, f.FillDW)
	}
	bytes := reads + writes
	// The sequential baseline flushes the scratchpad between its two
	// kernels, so dY is staged once per kernel: one extra dY sweep.
	bytesSeq := bytes
	if !skipDX && !freeDY {
		bytesSeq += f.DY
	}
	fillMem := MemFloorCycles(cfg, fillBytes, 2)
	return passBounds(cfg, comp, bytes, bytesSeq, calls, fillMem, fillComp)
}
