// Package core implements the paper's contribution: the interleaved
// gradient order. Its three techniques transform the backward pass of one
// layer —
//
//  1. Interleaving (Section 4.2): fuse the dX and dW tile streams so the
//     shared dY operand can be reused while resident in SPM.
//  2. Rearrangement (Section 4.3): force both streams to walk dY in the
//     same order (dXmajor or dWmajor), guaranteeing dY reuse at the cost of
//     extra partial-sum pressure for one output; Algorithm 1 selects the
//     order from tensor shape.
//  3. Data partitioning (Section 5): split the fused GEMM along M, N or K
//     to shrink working sets and to distribute work across cores sharing
//     the SPM.
//
// All transformations are pure schedule rewrites: they emit exactly the
// same multiset of tile operations as the sequential baseline, so the
// computed gradients are identical (verified by CheckEquivalence).
package core

import (
	"fmt"

	"igosim/internal/schedule"
	"igosim/internal/tensor"
)

// Order is the tile access order used for the interleaved gradient
// computation (Figure 10).
type Order uint8

const (
	// OnlyInterleave fuses the two gradient streams but keeps each one's
	// traditional access order: dX walks dY row-major, dW walks dY
	// column-major.
	OnlyInterleave Order = iota
	// DXMajor walks dY row-major for *both* computations: dX completes one
	// output row-band at a time while dW accumulates partial sums across
	// the whole sweep.
	DXMajor
	// DWMajor walks dY column-major for both computations: dW completes one
	// output column-band at a time while dX accumulates partial sums.
	DWMajor
)

func (o Order) String() string {
	switch o {
	case OnlyInterleave:
		return "interleave"
	case DXMajor:
		return "interleave+dXmajor"
	case DWMajor:
		return "interleave+dWmajor"
	default:
		return fmt.Sprintf("order(%d)", uint8(o))
	}
}

// Orders lists the three candidate access orders.
func Orders() []Order { return []Order{OnlyInterleave, DXMajor, DWMajor} }

// AlmostSquareRatio is the paper's threshold for "nearly square" tensors:
// the largest of M, K, N must be less than four times the smallest.
const AlmostSquareRatio = 4.0

// SelectOrder implements Algorithm 1: the static memory-access-order
// selection. Nearly-square computations keep the traditional orders (they
// already reuse dX and dW well). For skewed computations the paper's prose
// gives the economic rule: "we roughly opt for Interleaving+dXmajor when
// the size of dX_i is larger than the size of dW_i, and choose
// Interleaving+dWmajor otherwise" — i.e. the output that keeps live partial
// sums across the whole sweep (dW under dXmajor, dX under dWmajor) should
// be the *smaller* tensor, minimising the spill traffic of Section 4.3.
// With dX = MxK and dW = KxN that reduces to comparing M against N.
//
// The paper's Algorithm 1 listing states the branch as "K > N and K > M ->
// dWmajor", which contradicts the prose (it would pin the larger M*K
// partial set whenever K dominates, maximising spills); we follow the
// prose. SelectOrderLiteral implements the listing verbatim for the
// ablation benchmarks.
func SelectOrder(d tensor.Dims) Order {
	switch {
	case d.AlmostSquare(AlmostSquareRatio):
		return OnlyInterleave
	case d.M >= d.N:
		return DXMajor
	default:
		return DWMajor
	}
}

// SelectOrderLiteral implements the Algorithm 1 listing verbatim:
// dWmajor when K exceeds both M and N, dXmajor otherwise.
func SelectOrderLiteral(d tensor.Dims) Order {
	switch {
	case d.AlmostSquare(AlmostSquareRatio):
		return OnlyInterleave
	case d.K > d.N && d.K > d.M:
		return DWMajor
	default:
		return DXMajor
	}
}

// PartialFootprint returns the live partial-sum bytes the order keeps
// resident for the whole dY sweep: the entire dW tensor under dXmajor, the
// entire dX tensor under dWmajor (Section 4.3's "intermediate results").
func PartialFootprint(d tensor.Dims, o Order, elemBytes int) int64 {
	switch o {
	case DXMajor:
		return d.SizeW() * int64(elemBytes) // dW is K x N
	case DWMajor:
		return d.SizeX() * int64(elemBytes) // dX is M x K
	default:
		return 0
	}
}

// OrderCosts is the closed-form traffic penalty (bytes beyond a
// read-every-tensor-once ideal) the static selector assigns to each access
// order. All terms derive from tensor dimensions, the tiling and the SPM
// capacity, so the selection stays a constant-time static decision as
// Algorithm 1 requires.
type OrderCosts struct {
	Interleave, DXMajor, DWMajor float64
}

// EstimateOrderCosts models the Section 4.3 trade-off quantitatively:
//
//   - Interleave-only pays a second dY pass unless dY fits comfortably in
//     the scratchpad streaming half (the Figure 9 reuse-distance argument).
//   - dXmajor walks dY once but carries the whole dW as live partials; when
//     W plus those partials overflow the SPM, W is re-streamed once per row
//     chunk and overflowing partials spill to DRAM.
//   - dWmajor is the mirror image: it carries dX and re-streams X (whose
//     DRAM footprint is scaled by the im2col reuse factor) once per column
//     chunk.
func EstimateOrderCosts(p schedule.TileParams, spmBytes int64) OrderCosts {
	d := p.Dims
	e := float64(p.ElemBytes)
	xf := p.XFactor
	if xf <= 0 || xf > 1 {
		xf = 1
	}
	cap := float64(spmBytes / 2)
	dyB := float64(d.SizeY()) * e
	dwB := float64(d.SizeW()) * e
	dxB := float64(d.SizeX()) * e
	xB := dxB * xf

	var c OrderCosts

	// Interleave-only: the dW-side dY pass hits only while dY stays
	// resident alongside the streams' bands.
	if dyB > 0.5*cap {
		c.Interleave = dyB
	}

	// dXmajor: live set is dW partials + the W stream + row-chunk bands.
	if 2*dwB > 0.75*cap {
		chunkRows := chunkTiles(cap*fusedChunkShare, float64(p.Tiling.Tm)*float64(d.K)*e)
		mt, _, _ := p.Tiling.Counts(d)
		chunks := ceilDivInt(mt, chunkRows)
		c.DXMajor = float64(chunks-1) * dwB // W re-streamed per chunk
		if dwB > 0.625*cap {
			c.DXMajor += 2 * dwB // carried partials overflow: spill+refill
		}
	}

	// dWmajor: live set is dX partials + the X stream + column-chunk bands.
	if dxB+xB > 0.75*cap {
		chunkCols := chunkTiles(cap*fusedChunkShare, float64(d.K)*float64(p.Tiling.Tn)*e)
		_, _, nt := p.Tiling.Counts(d)
		chunks := ceilDivInt(nt, chunkCols)
		c.DWMajor = float64(chunks-1) * xB // X re-streamed per chunk
		if dxB > 0.625*cap {
			c.DWMajor += 2 * dxB
		}
	}
	return c
}

func chunkTiles(budget, perTile float64) int {
	if perTile <= 0 {
		return 1
	}
	c := int(budget / perTile)
	if c < 1 {
		c = 1
	}
	return c
}

func ceilDivInt(a, b int) int { return (a + b - 1) / b }

// SelectOrderFor is the static access-order selection the tuned pipeline
// uses: Algorithm 1's structure (nearly-square computations keep the
// traditional orders) with the Section 4.3 capacity qualification made
// quantitative — the paper notes that intermediate results beyond SPM
// capacity cost additional memory traffic and that "some layers might
// perform better without using dWmajor or dXmajor"; this selector compares
// those closed-form costs and keeps the cheapest order. It remains fully
// static: only tensor dimensions, the tiling and the SPM capacity enter.
func SelectOrderFor(p schedule.TileParams, spmBytes int64) Order {
	if p.Dims.AlmostSquare(AlmostSquareRatio) {
		return OnlyInterleave
	}
	c := EstimateOrderCosts(p, spmBytes)
	switch {
	case c.Interleave <= c.DXMajor && c.Interleave <= c.DWMajor:
		return OnlyInterleave
	case c.DXMajor <= c.DWMajor:
		return DXMajor
	default:
		return DWMajor
	}
}

// InterleaveOnly fuses the two gradient GEMMs at tile granularity
// (Figure 8b): the i-th tile op of the conventional dX stream alternates
// with the i-th tile op of the conventional dW stream, each in its default
// loop order, so the fusion is a pure reordering of the baseline's op
// multiset.
func InterleaveOnly(p schedule.TileParams) schedule.Schedule {
	ops := mergeStreams(nil, schedule.BaselineDX(p), schedule.BaselineDW(p), 1)
	return schedule.Schedule{Name: "interleave", Ops: ops}
}

// InterleaveDXMajor emits the Interleaving+dXmajor schedule (Figure 10b):
// dY is walked row-major once; each dY tile feeds its dX accumulation ops
// and then its dW accumulation ops before the walk advances. dX output
// tiles complete row-band by row-band; every dW output tile stays a partial
// sum for the entire M sweep, and the engine charges any overflow of those
// partials as the "additional memory traffic" of Section 4.3.
func InterleaveDXMajor(p schedule.TileParams) schedule.Schedule {
	return InterleaveDXMajorChunked(p, 1)
}

// InterleaveDWMajor emits the Interleaving+dWmajor schedule (Figure 10c):
// dY is walked column-major once; dW output tiles complete column-band by
// column-band while every dX output tile stays a partial sum for the entire
// N sweep.
func InterleaveDWMajor(p schedule.TileParams) schedule.Schedule {
	return InterleaveDWMajorChunked(p, 1)
}

// InterleaveDXMajorChunked is the dXmajor order with the dX row sweep
// processed in chunks of chunkRows tile-rows, so the completing output's
// live partials are bounded by construction (the reduction-inner structure
// and the single dY pass are preserved):
//
//	for each chunk of dX tile-rows:
//	    for no: for mo in chunk: for ko: dX op; dW op
func InterleaveDXMajorChunked(p schedule.TileParams, chunkRows int) schedule.Schedule {
	return schedule.Schedule{Name: "interleave+dXmajor", Ops: schedule.DXMajorOps(p, chunkRows)}
}

// InterleaveDWMajorChunked is the dWmajor order with the dW column sweep
// processed in chunks of chunkCols tile-columns.
func InterleaveDWMajorChunked(p schedule.TileParams, chunkCols int) schedule.Schedule {
	return schedule.Schedule{Name: "interleave+dWmajor", Ops: schedule.DWMajorOps(p, chunkCols)}
}

// Interleaved dispatches on the access order (unchunked variants; the tuned
// pipeline uses the chunked forms via RearrangedTuned).
func Interleaved(p schedule.TileParams, o Order) schedule.Schedule {
	switch o {
	case DXMajor:
		return InterleaveDXMajor(p)
	case DWMajor:
		return InterleaveDWMajor(p)
	default:
		return InterleaveOnly(p)
	}
}
