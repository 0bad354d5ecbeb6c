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
// (schedule.Program.Order). Each kernel is a recipe — its kind and the
// tuned candidate choice it walks — and one function, appendKernel, lays
// out every kernel: the tuners' family members, every plan's program
// (planProgram; a plan's parts lower into one table, so a tile two parts
// share carries one ID) and Figure 17's fused-sequential kernel. The Op
// emitters (baseline.go, order.go) stay as the refmodel oracle's input;
// TestShapeCodePrograms holds every program built here to the emitted
// schedules lowered through one compiler, op for op.

// kernelKind names what one backward kernel walks.
type kernelKind uint8

const (
	noKernel         kernelKind = iota // an unused kernel slot
	kBaselineDX                        // the dX stream alone
	kBaselineDW                        // the dW stream alone
	kDWOnly                            // a first layer's dW stream, no dX
	kInterleave                        // the two streams merged
	kDXMajor                           // the chunked dXmajor order
	kDWMajor                           // the chunked dWmajor order
	kFusedSequential                   // the dX stream, then the dW stream, as one kernel
)

// kernelNames are the kernel names programs and emitted schedules carry.
var kernelNames = [...]string{
	kBaselineDX:      "baseline-dX",
	kBaselineDW:      "baseline-dW",
	kDWOnly:          "dW-only",
	kInterleave:      "interleave",
	kDXMajor:         "interleave+dXmajor",
	kDWMajor:         "interleave+dWmajor",
	kFusedSequential: "fused-sequential",
}

// recipe is one backward kernel: its kind and the tuned candidate choice
// it walks, with every field the kind does not read left zero, so equal
// kernels have equal recipes. The fields leave no padding, so the plan
// keys that hold recipes hash and compare them as plain memory.
type recipe struct {
	kind  kernelKind
	dx    dxCandidate // the dX stream's order, where the kernel walks it
	dw    dwCandidate // the dW stream's order, where the kernel walks it
	block uint8       // an interleave's ops per stream per turn
	// chunk is a major order's chunk in tile-rows (dXmajor) or
	// tile-columns (dWmajor), within [1, the grid's extent].
	chunk int32
}

// partKernels are one part's kernels in launch order: the baseline pair,
// or one kernel and an unused slot.
type partKernels [2]recipe

// orderRecipe is p's rearranged kernel under order o (RearrangedWithOrder's
// schedule): the chunked major sized for cfg, or the tuned fusion.
func orderRecipe(cfg config.NPU, p schedule.TileParams, o Order) recipe {
	mt, _, nt := p.Tiling.Counts(p.Dims)
	switch o {
	case DXMajor:
		return recipe{kind: kDXMajor, chunk: int32(min(max(dxMajorChunk(cfg, p), 1), mt))}
	case DWMajor:
		return recipe{kind: kDWMajor, chunk: int32(min(max(dwMajorChunk(cfg, p), 1), nt))}
	default:
		return interleaveChoices(cfg, p)
	}
}

// kernelOrders is the access order a plan reports by its kernels' kind:
// the major orders', else OnlyInterleave (the last entry sizes the table).
var kernelOrders = [...]Order{kDXMajor: DXMajor, kDWMajor: DWMajor, kFusedSequential: OnlyInterleave}

// shapeCode is the lowered backward op table of one shape, or of a plan's
// parts in sequence, interned through one compiler.
type shapeCode struct {
	code  []schedule.CompiledOp
	tiles int
	grids []grid // one per lowered shape
	// built holds each grid's baseline streams an interleave merges, by
	// index dxMK, dxKM, 2+dwKN, 2+dwNK, built on first use (streams).
	built [][4][]int32
}

// grid locates one lowered shape's ops in its shapeCode.
type grid struct {
	mt, kt, nt int
	dx, dw     int32 // code index of the shape's first dX and first dW op
}

// opTables recycles the op tables of finished programs. sim.RunFamily and
// sim.RunMultiKeyed keep only resolved traces, so once they release a
// plan's program, or a tuner family returns, nothing references its
// table, and the next lowering draws it from here instead of allocating
// 56 B per op. Tables of every size are pooled: the one-shot programs of
// oversized layers, megabytes each, are what the GPU study lowers all
// the time, and left to the collector they were 70% of the bytes its
// backward passes allocated.
var opTables = runner.NewPool(func() []schedule.CompiledOp { return nil })

// opTable returns an empty op table with room for n ops, recycled when a
// pooled one is large enough.
func opTable(n int) []schedule.CompiledOp {
	if code := opTables.Get(); cap(code) >= n {
		return code[:0]
	}
	return make([]schedule.CompiledOp, 0, n)
}

// recycle hands code, the op table of finished programs no one else
// references, back to opTables.
func recycle(code []schedule.CompiledOp) { opTables.Put(code[:0]) }

// orderBufs recycles the order buffers of released programs: plans', and
// tuner family members', which run in parallel and so each need a buffer
// of their own. The next program built draws its order from here instead
// of allocating 4 B per op.
var orderBufs = runner.NewPool(func() []int32 { return nil })

// orderBuf returns an empty order buffer with room for n entries, recycled
// when a pooled one is large enough.
func orderBuf(n int) []int32 {
	if order := orderBufs.Get(); cap(order) >= n {
		return order[:0]
	}
	return make([]int32, 0, n)
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

// program returns an empty program over sc whose order, drawn from
// orderBufs, has room for ops.
func (sc *shapeCode) program(ops int) *schedule.Program {
	return &schedule.Program{Code: sc.code, Order: orderBuf(ops), Tiles: sc.tiles}
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

// appendDXMajor appends the dXmajor order in chunks of chunk tile-rows
// (InterleaveDXMajorChunked).
func (g grid) appendDXMajor(dst []int32, chunk int) []int32 {
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

// appendDWMajor appends the dWmajor order in chunks of chunk tile-columns
// (InterleaveDWMajorChunked).
func (g grid) appendDWMajor(dst []int32, chunk int) []int32 {
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

// streams returns grid i's baseline streams that the fusion r merges,
// each built on first use and kept, so the members of a fusion family
// build every stream once.
func (sc *shapeCode) streams(i int, r recipe) (dx, dw []int32) {
	if sc.built == nil {
		sc.built = make([][4][]int32, len(sc.grids))
	}
	g, s := sc.grids[i], &sc.built[i]
	if s[r.dx] == nil {
		s[r.dx] = g.appendDX(make([]int32, 0, g.ops()), r.dx)
	}
	if s[2+r.dw] == nil {
		s[2+r.dw] = g.appendDW(make([]int32, 0, g.ops()), r.dw)
	}
	return s[r.dx], s[2+r.dw]
}

// appendKernel appends the kernel r over grid i to prog, on core. Every
// backward kernel core runs is built here: plan kernels, the tuners'
// family members and Figure 17's fused-sequential kernel.
func (sc *shapeCode) appendKernel(prog *schedule.Program, i int, r recipe, core int) {
	g, start := sc.grids[i], len(prog.Order)
	switch r.kind {
	case kBaselineDX:
		prog.Order = g.appendDX(prog.Order, r.dx)
	case kBaselineDW, kDWOnly:
		prog.Order = g.appendDW(prog.Order, r.dw)
	case kInterleave:
		dx, dw := sc.streams(i, r)
		prog.Order = mergeStreams(prog.Order, dx, dw, int(r.block))
	case kDXMajor:
		prog.Order = g.appendDXMajor(prog.Order, int(r.chunk))
	case kDWMajor:
		prog.Order = g.appendDWMajor(prog.Order, int(r.chunk))
	case kFusedSequential:
		prog.Order = g.appendDW(g.appendDX(prog.Order, r.dx), r.dw)
	default:
		panic(fmt.Sprintf("core: kernel kind %d has no order", r.kind))
	}
	endKernel(prog, kernelNames[r.kind], core, start)
}

// planProgram builds the backward program of a plan's parts, part i
// running kernels[i]. Kernels go phase-major: kernel k of every part in
// turn, part i's on core i when multi and on core 0 otherwise. A whole
// layer is a one-part plan; a single-core partitioned plan runs one
// kernel per part, in order; the multi-core baseline runs every core's dX
// kernel as one phase, then every core's dW kernel, since data
// parallelism launches each gradient kernel on all cores together.
// Untraced single-core plans without free dY are composed from their
// tuners' runs instead (compose.go), and build no program. The
// program's Release recycles its op table and order.
func planProgram(parts []schedule.TileParams, kernels []partKernels, multi bool) *schedule.Program {
	sc := lowerShapes(parts...)
	prog := sc.program(len(sc.code))
	prog.Release = func() {
		orderBufs.Put(prog.Order[:0])
		recycle(prog.Code)
	}
	for k := range len(partKernels{}) {
		for i, ks := range kernels {
			if ks[k].kind == noKernel {
				continue
			}
			core := 0
			if multi {
				core = i
			}
			sc.appendKernel(prog, i, ks[k], core)
		}
	}
	return prog
}

// forwardProgram lowers the forward pass of parts through one compiler:
// one kernel per part, part i's on core i when multi and on core 0
// otherwise. The program's Release recycles its op table.
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
	prog.Release = func() { recycle(prog.Code) }
	return prog
}
