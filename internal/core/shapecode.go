package core

import (
	"fmt"

	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/schedule"
)

// Programs as orders over one lowered op table (DESIGN.md §3k). Every
// backward op is a fixed function of its (m, k, n) grid point: its tiles,
// byte sizes, classes, tile dimensions and OutFirst/OutLast flags depend on
// the point alone, never on where the op sits in a schedule. A shape's 2n
// backward ops are therefore lowered once — dX in MK order, then dW in KN
// order, which fixes the tile IDs in first-appearance order — and every
// backward program is a []int32 order over that table
// (schedule.Program.Order): the tuners' baseline pair, fusion merges and
// chunked majors, and every plan's program (planProgram) — a whole layer,
// a single-core partitioned plan or a multi-core plan, whose parts lower
// one after another into one table, so a tile two parts share carries one
// ID. The Op emitters (baseline.go, order.go) stay as the refmodel
// oracle's input; TestShapeCodePrograms holds every program built here to
// the emitted schedules lowered through one compiler, op for op.

// shapeCode is the lowered backward op table of one shape, or of a plan's
// parts in sequence, interned through one compiler.
type shapeCode struct {
	code  []schedule.CompiledOp
	tiles int
	grids []grid // one per lowered shape
}

// grid locates one lowered shape's ops in its shapeCode.
type grid struct {
	mt, kt, nt int
	dx, dw     int32 // code index of the shape's first dX and first dW op
}

// opTables recycles the op tables of finished programs. sim.RunFamily and
// sim.RunMultiKeyed keep only resolved traces, so once runProgram or
// tunerFamily returns nothing references its program's table, and the
// next lowering draws it from here instead of allocating 56 B per op.
var opTables = runner.NewPool(func() []schedule.CompiledOp { return nil })

// maxPooledOps bounds the tables opTables keeps: the keyed plans and
// families stay within it, while the one-shot programs of oversized
// layers, rare and megabytes each, are left to the collector.
const maxPooledOps = 2 * panelOpBudget

// opTable returns an empty op table with room for n ops, recycled when a
// pooled one is large enough.
func opTable(n int) []schedule.CompiledOp {
	if n > maxPooledOps {
		return make([]schedule.CompiledOp, 0, n)
	}
	if code := opTables.Get(); cap(code) >= n {
		return code[:0]
	}
	return make([]schedule.CompiledOp, 0, n)
}

// recycle hands the op table of prog, a finished program no one else
// references, back to opTables. A nil prog (nothing was built) is a no-op.
func recycle(prog *schedule.Program) {
	if prog != nil && cap(prog.Code) <= maxPooledOps {
		opTables.Put(prog.Code[:0])
	}
}

// lowerShapes lowers the backward ops of ps, one shape after another, into
// one table.
func lowerShapes(ps ...schedule.TileParams) *shapeCode {
	n := 0
	sc := &shapeCode{grids: make([]grid, len(ps))}
	for i, p := range ps {
		g := &sc.grids[i]
		g.mt, g.kt, g.nt = p.Tiling.Counts(p.Dims)
		g.dx = int32(n)
		g.dw = g.dx + int32(g.ops())
		n += 2 * g.ops()
	}
	sc.code, sc.tiles = schedule.LowerShapes(opTable(n), false, ps...)
	return sc
}

// program returns an empty program over sc whose order has room for ops.
func (sc *shapeCode) program(ops int) *schedule.Program {
	return &schedule.Program{Code: sc.code, Order: make([]int32, 0, ops), Tiles: sc.tiles}
}

// endKernel closes the kernel name on core that spans prog's order from
// start.
func endKernel(prog *schedule.Program, name string, core, start int) {
	prog.Kernels = append(prog.Kernels, schedule.Kernel{Name: name, Start: start, End: len(prog.Order), Core: core})
}

func (g grid) ops() int { return g.mt * g.kt * g.nt }

// dxAt and dwAt index the dX op at grid point (mo, ko, no) and the dW op
// at (ko, no, mo), the points schedule.TileParams.DXOp and DWOp take.
func (g grid) dxAt(mo, ko, no int) int32 { return g.dx + int32((mo*g.kt+ko)*g.nt+no) }
func (g grid) dwAt(ko, no, mo int) int32 { return g.dw + int32((ko*g.nt+no)*g.mt+mo) }

// appendDX appends the dX stream of a tuned baseline candidate, dxMK or
// dxKM (schedule.BaselineDXOrdered).
func (g grid) appendDX(dst []int32, c dxCandidate) []int32 {
	switch c {
	case dxMK:
		for i := range g.ops() {
			dst = append(dst, g.dx+int32(i))
		}
	case dxKM:
		for ko := 0; ko < g.kt; ko++ {
			for mo := 0; mo < g.mt; mo++ {
				for no := 0; no < g.nt; no++ {
					dst = append(dst, g.dxAt(mo, ko, no))
				}
			}
		}
	default:
		panic(fmt.Sprintf("core: dX candidate %d is not a tuned baseline order", c))
	}
	return dst
}

// appendDW appends the dW stream of a tuned baseline candidate, dwKN or
// dwNK (schedule.BaselineDWOrdered).
func (g grid) appendDW(dst []int32, c dwCandidate) []int32 {
	switch c {
	case dwKN:
		for i := range g.ops() {
			dst = append(dst, g.dw+int32(i))
		}
	case dwNK:
		for no := 0; no < g.nt; no++ {
			for ko := 0; ko < g.kt; ko++ {
				for mo := 0; mo < g.mt; mo++ {
					dst = append(dst, g.dwAt(ko, no, mo))
				}
			}
		}
	default:
		panic(fmt.Sprintf("core: dW candidate %d is not a tuned baseline order", c))
	}
	return dst
}

// appendInterleave appends the fusion v of the two baseline streams
// (TunedInterleave's schedule).
func (g grid) appendInterleave(dst []int32, v ordersVal) []int32 {
	n := g.ops()
	buf := make([]int32, 0, 2*n)
	dx := g.appendDX(buf, v.dx)
	dw := g.appendDW(dx[n:n], v.dw)
	return mergeStreams(dst, dx, dw, v.block)
}

// appendDXMajor appends the dXmajor order in chunks of chunkRows tile-rows
// (InterleaveDXMajorChunked).
func (g grid) appendDXMajor(dst []int32, chunkRows int) []int32 {
	chunk := min(max(chunkRows, 1), g.mt)
	for mc := 0; mc < g.mt; mc += chunk {
		hi := min(mc+chunk, g.mt)
		for no := 0; no < g.nt; no++ {
			for mo := mc; mo < hi; mo++ {
				for ko := 0; ko < g.kt; ko++ {
					dst = append(dst, g.dxAt(mo, ko, no), g.dwAt(ko, no, mo))
				}
			}
		}
	}
	return dst
}

// appendDWMajor appends the dWmajor order in chunks of chunkCols
// tile-columns (InterleaveDWMajorChunked).
func (g grid) appendDWMajor(dst []int32, chunkCols int) []int32 {
	chunk := min(max(chunkCols, 1), g.nt)
	for nc := 0; nc < g.nt; nc += chunk {
		hi := min(nc+chunk, g.nt)
		for mo := 0; mo < g.mt; mo++ {
			for no := nc; no < hi; no++ {
				for ko := 0; ko < g.kt; ko++ {
					dst = append(dst, g.dwAt(ko, no, mo), g.dxAt(mo, ko, no))
				}
			}
		}
	}
	return dst
}

// appendRearranged appends the rearranged kernel of order o on core
// (RearrangedWithOrder's schedule): the chunked major sized for cfg, or
// the fusion v.
func appendRearranged(prog *schedule.Program, g grid, cfg config.NPU, p schedule.TileParams, core int, o Order, v ordersVal) {
	start := len(prog.Order)
	switch o {
	case DXMajor:
		prog.Order = g.appendDXMajor(prog.Order, dxMajorChunk(cfg, p))
		endKernel(prog, "interleave+dXmajor", core, start)
	case DWMajor:
		prog.Order = g.appendDWMajor(prog.Order, dwMajorChunk(cfg, p))
		endKernel(prog, "interleave+dWmajor", core, start)
	default:
		prog.Order = g.appendInterleave(prog.Order, v)
		endKernel(prog, "interleave", core, start)
	}
}

// planProgram builds the backward program of a plan's parts under pol,
// dW-only when skipDX — the tuned kernels the Op emitters produce for each
// part — from the tuned choices (orders[i], tuned[i]) that tunedChoices
// resolves for part i. Kernels go phase-major: kernel k of every part in
// turn, part i's on core i when multi and on core 0 otherwise. A whole layer is a one-part
// plan; a single-core partitioned plan runs one rearranged kernel per
// part, in order; the multi-core baseline runs every core's dX kernel as
// one phase, then every core's dW kernel, since data parallelism launches
// each gradient kernel on all cores together.
func planProgram(cfg config.NPU, parts []schedule.TileParams, pol Policy, skipDX, multi bool, orders []Order, tuned []ordersVal) *schedule.Program {
	sc := lowerShapes(parts...)
	prog := sc.program(len(sc.code))
	baseline, kernels := pol == PolBaseline && !skipDX, 1
	if baseline {
		kernels = 2
	}
	for k := range kernels {
		for i, g := range sc.grids {
			core, start, v := 0, len(prog.Order), tuned[i]
			if multi {
				core = i
			}
			switch {
			case skipDX:
				prog.Order = g.appendDW(prog.Order, v.dw)
				endKernel(prog, "dW-only", core, start)
			case baseline && k == 0:
				prog.Order = g.appendDX(prog.Order, v.dx)
				endKernel(prog, "baseline-dX", core, start)
			case baseline:
				prog.Order = g.appendDW(prog.Order, v.dw)
				endKernel(prog, "baseline-dW", core, start)
			default:
				appendRearranged(prog, g, cfg, parts[i], core, orders[i], v)
			}
		}
	}
	return prog
}

// forwardProgram lowers the forward pass of parts through one compiler:
// one kernel per part, part i's on core i when multi and on core 0
// otherwise.
func forwardProgram(parts []schedule.TileParams, multi bool) *schedule.Program {
	n := 0
	prog := &schedule.Program{Kernels: make([]schedule.Kernel, len(parts))}
	for i, p := range parts {
		k := &prog.Kernels[i]
		k.Name, k.Start = "forward", n
		n += p.OpCount()
		k.End = n
		if multi {
			k.Core = i
		}
	}
	prog.Code, prog.Tiles = schedule.LowerShapes(opTable(n), true, parts...)
	return prog
}

// fusedSequentialProgram builds the baseline pair v of p as one kernel
// named "fused-sequential".
func fusedSequentialProgram(p schedule.TileParams, v ordersVal) *schedule.Program {
	sc := lowerShapes(p)
	g := sc.grids[0]
	prog := sc.program(len(sc.code))
	prog.Order = g.appendDW(g.appendDX(prog.Order, v.dx), v.dw)
	endKernel(prog, "fused-sequential", 0, 0)
	return prog
}
