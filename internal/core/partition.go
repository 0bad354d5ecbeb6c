package core

import (
	"fmt"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

// Scheme is a data-partitioning scheme for the fused backward GEMM
// (Figure 11). The scheme determines which dimension is split, which
// tensor every partition shares, and which gradient needs a
// cross-partition reduction.
type Scheme uint8

const (
	// NoPartition leaves the layer whole.
	NoPartition Scheme = iota
	// WeightSharing splits the batch dimension M (the conventional
	// batch-basis data parallelism): dY and X are split by rows, W is
	// shared, and each partition produces a *partial* dW that must be
	// accumulated across partitions.
	WeightSharing
	// DYSharing splits the output-column dimension N: dY and W are split
	// by columns, X is duplicated in every partition, dW portions are
	// independent, and dX requires accumulation.
	DYSharing
	// IfmapSharing splits the contraction dimension K: X and W are split
	// along K, dY is duplicated in every partition (and therefore shareable
	// in a shared SPM), and *neither* gradient requires accumulation.
	IfmapSharing
)

func (s Scheme) String() string {
	switch s {
	case NoPartition:
		return "none"
	case WeightSharing:
		return "weight-sharing"
	case DYSharing:
		return "dY-sharing"
	case IfmapSharing:
		return "ifmap-sharing"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Schemes lists the three real partitioning schemes of Figure 11.
func Schemes() []Scheme { return []Scheme{WeightSharing, DYSharing, IfmapSharing} }

// Reduction describes the cross-partition accumulation a plan requires.
type Reduction struct {
	// Parts is the number of partial tensors to combine.
	Parts int
	// Bytes is the size of one partial (and of the final tensor).
	Bytes int64
	// FinalClass is the tensor class of the reduced result (dX or dW).
	FinalClass dram.Class
}

// Plan is a concrete partitioning of one layer's backward pass.
type Plan struct {
	Scheme Scheme
	// Parts holds the per-partition tile parameters. A plan degenerates to
	// a single partition when the split dimension has too few tiles.
	Parts []schedule.TileParams
	// Reductions lists the accumulation phases the plan requires.
	Reductions []Reduction
}

// span is a contiguous chunk of a tile grid.
type span struct{ start, count int }

// splitGrid divides `total` tiles into at most `parts` contiguous
// near-equal chunks, dropping empty ones.
func splitGrid(total, parts int) []span {
	if parts > total {
		parts = total
	}
	out := make([]span, 0, parts)
	base := total / parts
	rem := total % parts
	start := 0
	for i := 0; i < parts; i++ {
		c := base
		if i < rem {
			c++
		}
		if c == 0 {
			continue
		}
		out = append(out, span{start: start, count: c})
		start += c
	}
	return out
}

// localExtent returns the element extent covered by a chunk of the tile
// grid: full tiles except that the final chunk absorbs the edge tile.
func localExtent(s span, tile, dim, totalTiles int) int {
	if s.start+s.count == totalTiles {
		return dim - s.start*tile
	}
	return s.count * tile
}

// PartitionLayer builds the partitioning plan for one layer. parts is the
// requested partition count; the plan holds fewer partitions when the split
// dimension does not have enough tiles (the Section 5 observation that
// splitting a dimension smaller than the array is useless is captured by
// the tile grid running out).
func PartitionLayer(p schedule.TileParams, scheme Scheme, parts int) Plan {
	if parts < 1 {
		panic(fmt.Sprintf("core: invalid partition count %d", parts))
	}
	if parts > schedule.MaxPartitions {
		parts = schedule.MaxPartitions
	}
	mt, kt, nt := p.Tiling.Counts(p.Dims)
	elem := int64(p.ElemBytes)

	plan := Plan{Scheme: scheme}
	switch scheme {
	case NoPartition:
		plan.Parts = []schedule.TileParams{p}
		return plan

	case WeightSharing:
		spans := splitGrid(mt, parts)
		for i, s := range spans {
			sub := p
			sub.Part = i
			sub.OffM = p.OffM + s.start
			sub.Dims.M = localExtent(s, p.Tiling.Tm, p.Dims.M, mt)
			sub.DWPartial = len(spans) > 1
			plan.Parts = append(plan.Parts, sub)
		}
		if len(spans) > 1 {
			plan.Reductions = append(plan.Reductions, Reduction{
				Parts:      len(spans),
				Bytes:      int64(p.Dims.K) * int64(p.Dims.N) * elem,
				FinalClass: dram.ClassDW,
			})
		}
		return plan

	case DYSharing:
		spans := splitGrid(nt, parts)
		for i, s := range spans {
			sub := p
			sub.Part = i
			sub.OffN = p.OffN + s.start
			sub.Dims.N = localExtent(s, p.Tiling.Tn, p.Dims.N, nt)
			sub.DXPartial = len(spans) > 1
			plan.Parts = append(plan.Parts, sub)
		}
		if len(spans) > 1 {
			plan.Reductions = append(plan.Reductions, Reduction{
				Parts:      len(spans),
				Bytes:      int64(p.Dims.M) * int64(p.Dims.K) * elem,
				FinalClass: dram.ClassDX,
			})
		}
		return plan

	case IfmapSharing:
		spans := splitGrid(kt, parts)
		for i, s := range spans {
			sub := p
			sub.Part = i
			sub.OffK = p.OffK + s.start
			sub.Dims.K = localExtent(s, p.Tiling.Tk, p.Dims.K, kt)
			plan.Parts = append(plan.Parts, sub)
		}
		return plan

	default:
		panic(fmt.Sprintf("core: unknown scheme %v", scheme))
	}
}

// ReduceResults returns the simulation cost of the plan's reductions.
func (pl Plan) ReduceResults(cfg config.NPU) []sim.ReduceResult {
	out := make([]sim.ReduceResult, 0, len(pl.Reductions))
	for _, r := range pl.Reductions {
		out = append(out, sim.ReduceCost(cfg, r.Parts, r.Bytes, r.FinalClass))
	}
	return out
}

// Dims echoes the parent GEMM dimensions of the plan (all partitions share
// the same parent).
func (pl Plan) Dims() tensor.Dims {
	if len(pl.Parts) == 0 {
		return tensor.Dims{}
	}
	d := pl.Parts[0].Dims
	for _, sub := range pl.Parts[1:] {
		switch pl.Scheme {
		case WeightSharing:
			d.M += sub.Dims.M
		case DYSharing:
			d.N += sub.Dims.N
		case IfmapSharing:
			d.K += sub.Dims.K
		}
	}
	return d
}
