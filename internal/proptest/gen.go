package proptest

import (
	"fmt"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/schedule"
	"igosim/internal/tensor"
)

// Variant selects which schedule generator a case exercises. The list spans
// every backward-pass producer in the tree: the sequential baselines, the
// chunked partial-stationary orders of the prior-work baseline, and the
// paper's three interleaved orders plus their chunked forms.
type Variant uint8

const (
	// VariantBaselineTwoKernel runs the conventional dX and dW GEMMs as two
	// flushed kernels — the paper's Figure 8a baseline.
	VariantBaselineTwoKernel Variant = iota
	// VariantBaseline runs the same ops as one unflushed stream.
	VariantBaseline
	// VariantBaselineAlt uses the alternative per-GEMM loop orders (KM, NK).
	VariantBaselineAlt
	// VariantPartialRows chains the row-chunked partial-stationary GEMMs.
	VariantPartialRows
	// VariantPartialCols chains the column-chunked partial-stationary GEMMs.
	VariantPartialCols
	// VariantInterleave fuses the gradient streams, traditional orders.
	VariantInterleave
	// VariantDXMajor walks dY row-major for both gradients.
	VariantDXMajor
	// VariantDWMajor walks dY column-major for both gradients.
	VariantDWMajor
	// VariantDXMajorChunked bounds dXmajor's live partials by row chunks.
	VariantDXMajorChunked
	// VariantDWMajorChunked bounds dWmajor's live partials by column chunks.
	VariantDWMajorChunked
	// NumVariants counts the variants.
	NumVariants
)

func (v Variant) String() string {
	switch v {
	case VariantBaselineTwoKernel:
		return "baseline-two-kernel"
	case VariantBaseline:
		return "baseline"
	case VariantBaselineAlt:
		return "baseline-alt-orders"
	case VariantPartialRows:
		return "partial-stationary-rows"
	case VariantPartialCols:
		return "partial-stationary-cols"
	case VariantInterleave:
		return "interleave"
	case VariantDXMajor:
		return "interleave+dXmajor"
	case VariantDWMajor:
		return "interleave+dWmajor"
	case VariantDXMajorChunked:
		return "interleave+dXmajor-chunked"
	case VariantDWMajorChunked:
		return "interleave+dWmajor-chunked"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// Case is one generated test case: a GEMM shape, a tiling, an NPU
// configuration and a schedule variant. The scratchpad is expressed
// relative to the largest tile (SPMFactor tiles plus SPMExtra loose bytes)
// so shrinking the shape keeps the case well-formed, and so pressure — the
// interesting regime — survives shrinking.
type Case struct {
	Dims      tensor.Dims
	Tiling    schedule.Tiling
	ElemBytes int

	ArrayRows, ArrayCols int
	// WeightStationary selects the alternative systolic mapping.
	WeightStationary bool
	// BandBPC is the DRAM bandwidth in whole bytes per cycle.
	BandBPC int
	// Latency is the per-burst DRAM latency in cycles.
	Latency int64
	// SPMFactor scales the residency capacity in units of the largest tile;
	// values below 8 put the scratchpad under real pressure.
	SPMFactor int
	// SPMExtra adds loose bytes below one tile to hit off-by-one capacities.
	SPMExtra int64
	// XFactor, when in (0,1), models im2col reuse on X/dX tiles.
	XFactor float64

	Variant Variant
	// Chunk feeds the chunked variants (and clampChunk: zero and
	// out-of-range values are legal inputs).
	Chunk int

	// Scheme and Parts configure the partitioning invariants.
	Scheme core.Scheme
	Parts  int

	// Cores and Phases shape the multi-core workload (MultiPhases): the
	// layer split under Scheme across at most Cores cores, run for Phases
	// synchronized phases.
	Cores  int
	Phases int
}

// maxOpsPerCase bounds the tile-op grid so a single case stays fast enough
// to run by the hundreds inside plain `go test`.
const maxOpsPerCase = 2500

// GenCase draws one case. All constraints the engine hard-requires (tiles
// fit the scratchpad, positive dimensions) are enforced here; everything
// else — pressure, edge tiles, degenerate chunk sizes — is left free.
func GenCase(s *Source) Case {
	c := Case{
		Dims: tensor.Dims{
			M: s.IntRange(1, 40),
			K: s.IntRange(1, 40),
			N: s.IntRange(1, 40),
		},
		ElemBytes:        []int{1, 2, 4}[s.Pick(3)],
		ArrayRows:        s.IntRange(2, 32),
		ArrayCols:        s.IntRange(2, 32),
		WeightStationary: s.Pick(4) == 0,
		BandBPC:          s.IntRange(1, 64),
		Latency:          []int64{0, 1, 10, 100}[s.Pick(4)],
		SPMFactor:        s.IntRange(3, 24),
		Variant:          Variant(s.Pick(int(NumVariants))),
		Chunk:            s.IntRange(0, 6),
		Scheme:           core.Schemes()[s.Pick(len(core.Schemes()))],
		Parts:            s.IntRange(1, 6),
	}
	// Occasionally skew one dimension hard: the rearranged orders only
	// differ from the baseline on skewed shapes (Algorithm 1).
	if s.Pick(4) == 0 {
		switch s.Pick(3) {
		case 0:
			c.Dims.M *= 2
		case 1:
			c.Dims.K *= 2
		default:
			c.Dims.N *= 2
		}
	}
	c.Tiling = schedule.Tiling{
		Tm: s.IntRange(1, c.Dims.M+1),
		Tk: s.IntRange(1, c.Dims.K+1),
		Tn: s.IntRange(1, c.Dims.N+1),
	}
	if s.Pick(3) == 0 {
		c.XFactor = float64(s.IntRange(5, 95)) / 100
	}
	c.SPMExtra = s.Int63Range(0, max(c.maxTileBytes()-1, 0))
	// The multi-core knobs are drawn after every single-core one, so they
	// leave the single-core properties' case sequences untouched.
	c.Cores = s.IntRange(1, 4)
	c.Phases = s.IntRange(1, 2)
	return c.normalize()
}

// normalize clamps a case into the space the engine accepts and the op
// budget allows. Generated and shrunk cases both pass through here, so
// every case handed to an invariant is well-formed by construction.
func (c Case) normalize() Case {
	c.Dims.M = max(c.Dims.M, 1)
	c.Dims.K = max(c.Dims.K, 1)
	c.Dims.N = max(c.Dims.N, 1)
	c.Tiling.Tm = max(c.Tiling.Tm, 1)
	c.Tiling.Tk = max(c.Tiling.Tk, 1)
	c.Tiling.Tn = max(c.Tiling.Tn, 1)
	c.ElemBytes = max(c.ElemBytes, 1)
	c.ArrayRows = max(c.ArrayRows, 1)
	c.ArrayCols = max(c.ArrayCols, 1)
	c.BandBPC = max(c.BandBPC, 1)
	c.Latency = max(c.Latency, 0)
	c.SPMFactor = max(c.SPMFactor, 3)
	c.SPMExtra = max(c.SPMExtra, 0)
	if c.XFactor < 0 || c.XFactor >= 1 {
		c.XFactor = 0
	}
	c.Chunk = max(c.Chunk, 0)
	if c.Variant >= NumVariants {
		c.Variant = VariantBaseline
	}
	c.Parts = min(max(c.Parts, 1), schedule.MaxPartitions)
	c.Cores = min(max(c.Cores, 1), 4)
	c.Phases = min(max(c.Phases, 1), 2)
	switch c.Scheme {
	case core.WeightSharing, core.DYSharing, core.IfmapSharing:
	default:
		c.Scheme = core.IfmapSharing
	}
	// Bound the tile grid: grow tiles until the op count fits the budget.
	for {
		mt, kt, nt := c.Tiling.Counts(c.Dims)
		if mt*kt*nt <= maxOpsPerCase {
			break
		}
		switch {
		case mt >= kt && mt >= nt:
			c.Tiling.Tm *= 2
		case kt >= nt:
			c.Tiling.Tk *= 2
		default:
			c.Tiling.Tn *= 2
		}
	}
	return c
}

// maxTileBytes returns the largest tile the tiling can emit for the case's
// shape — the scratchpad sizing unit.
func (c Case) maxTileBytes() int64 {
	em := int64(min(c.Tiling.Tm, c.Dims.M))
	ek := int64(min(c.Tiling.Tk, c.Dims.K))
	en := int64(min(c.Tiling.Tn, c.Dims.N))
	return int64(c.ElemBytes) * max(em*ek, max(ek*en, em*en))
}

// Config realises the case's NPU. Bandwidth is an exact whole number of
// bytes per cycle so traffic-to-cycle conversions carry no float noise.
func (c Case) Config() config.NPU {
	df := config.OutputStationary
	if c.WeightStationary {
		df = config.WeightStationary
	}
	return config.NPU{
		Name:          "proptest",
		ArrayRows:     c.ArrayRows,
		ArrayCols:     c.ArrayCols,
		Cores:         1,
		SPMBytes:      2 * (int64(c.SPMFactor)*c.maxTileBytes() + c.SPMExtra),
		DRAMBandwidth: float64(c.BandBPC) * 1e9,
		DRAMLatency:   c.Latency,
		FrequencyHz:   1e9,
		ElemBytes:     c.ElemBytes,
		Batch:         1,
		Dataflow:      df,
	}
}

// Relaxed returns the case with the scratchpad floor raised to eight tiles.
// The dY-reuse inequality is only a theorem when consecutive uses of a dY
// tile cannot be separated by enough insertions to evict it (see
// CheckDYReuse); eight largest-tiles is comfortably past that bound.
func (c Case) Relaxed() Case {
	if c.SPMFactor < 8 {
		c.SPMFactor = 8
	}
	return c
}

// Params returns the layer tile parameters of the case.
func (c Case) Params() schedule.TileParams {
	return schedule.TileParams{
		Dims:      c.Dims,
		Tiling:    c.Tiling,
		ElemBytes: c.ElemBytes,
		Layer:     1,
		XFactor:   c.XFactor,
	}
}

// Schedules materialises the case's schedule variant as the kernel sequence
// sim.RunSchedules (and the oracle) executes.
func (c Case) Schedules() []schedule.Schedule { return c.schedulesFor(c.Params()) }

// schedulesFor emits the case's schedule variant for tile parameters p.
func (c Case) schedulesFor(p schedule.TileParams) []schedule.Schedule {
	switch c.Variant {
	case VariantBaselineTwoKernel:
		return []schedule.Schedule{
			{Name: "dx-kernel", Ops: schedule.BaselineDX(p)},
			{Name: "dw-kernel", Ops: schedule.BaselineDW(p)},
		}
	case VariantBaseline:
		return []schedule.Schedule{schedule.BaselineBackward(p)}
	case VariantBaselineAlt:
		return []schedule.Schedule{schedule.BaselineBackwardOrdered(p, schedule.DXOrderKM, schedule.DWOrderNK)}
	case VariantPartialRows:
		ops := schedule.PartialStationaryDX(p, c.Chunk)
		ops = append(ops, schedule.PartialStationaryDW(p, c.Chunk)...)
		return []schedule.Schedule{{Name: "partial-stationary-rows", Ops: ops}}
	case VariantPartialCols:
		ops := schedule.PartialStationaryDXCols(p, c.Chunk)
		ops = append(ops, schedule.PartialStationaryDWCols(p, c.Chunk)...)
		return []schedule.Schedule{{Name: "partial-stationary-cols", Ops: ops}}
	case VariantInterleave:
		return []schedule.Schedule{core.InterleaveOnly(p)}
	case VariantDXMajor:
		return []schedule.Schedule{core.InterleaveDXMajor(p)}
	case VariantDWMajor:
		return []schedule.Schedule{core.InterleaveDWMajor(p)}
	case VariantDXMajorChunked:
		return []schedule.Schedule{core.InterleaveDXMajorChunked(p, c.Chunk)}
	default:
		return []schedule.Schedule{core.InterleaveDWMajorChunked(p, c.Chunk)}
	}
}

// MultiConfig realises the case's NPU with Cores cores.
func (c Case) MultiConfig() config.NPU {
	cfg := c.Config()
	cfg.Cores = c.Cores
	return cfg
}

// MultiPhases materialises the case's multi-core workload, the shape
// sim.CompilePhases lowers and refmodel.ReplayMulti replays: the layer partitioned under Scheme into at
// most Cores parts, each part's variant schedule (kernels concatenated)
// one core's stream. Phase k gives core i part (i+k) mod n, so a second
// phase reruns every part on a different core after the phase-boundary
// flush.
func (c Case) MultiPhases() [][][]schedule.Op {
	plan := core.PartitionLayer(c.Params(), c.Scheme, c.Cores)
	parts := make([][]schedule.Op, len(plan.Parts))
	for i, sub := range plan.Parts {
		for _, s := range c.schedulesFor(sub) {
			parts[i] = append(parts[i], s.Ops...)
		}
	}
	phases := make([][][]schedule.Op, c.Phases)
	for k := range phases {
		phases[k] = make([][]schedule.Op, len(parts))
		for i := range parts {
			phases[k][i] = parts[(i+k)%len(parts)]
		}
	}
	return phases
}

// AllOps concatenates the case's kernel streams, for stream-level checks.
func (c Case) AllOps() []schedule.Op {
	var ops []schedule.Op
	for _, s := range c.Schedules() {
		ops = append(ops, s.Ops...)
	}
	return ops
}

func (c Case) String() string {
	return fmt.Sprintf(
		"case{%v tile %dx%dx%d elem %d arr %dx%d ws=%v band %dB/c lat %d spm %dxTile+%dB xf %.2f %v chunk %d %v parts %d cores %d phases %d}",
		c.Dims, c.Tiling.Tm, c.Tiling.Tk, c.Tiling.Tn, c.ElemBytes,
		c.ArrayRows, c.ArrayCols, c.WeightStationary, c.BandBPC, c.Latency,
		c.SPMFactor, c.SPMExtra, c.XFactor, c.Variant, c.Chunk, c.Scheme, c.Parts, c.Cores, c.Phases)
}
