package schedule

import (
	"fmt"
	"sync"

	"igosim/internal/dram"
)

// This file lowers tile-op streams into a dense, execution-ready program
// form (DESIGN.md §3g). Rather than resolving every access through
// map-keyed residency lookups on the 16-byte TileKey, the compiled form
// interns each distinct key into a small integer once, so the engine can
// run against flat arrays with zero map traffic and zero allocations in
// steady state. Everything derivable from the op alone — byte sizes, tensor
// classes, the OutFirst/OutLast protocol bits, whether an operand is a dY
// read of a dW op (the Section 3.3 free-dY predicate) — is precomputed at
// compile time into CompiledOp.

// TileID is a dense per-program tile identifier assigned by interning
// TileKeys in first-appearance order.
type TileID int32

// OpFlags packs a compiled op's boolean properties.
type OpFlags uint8

const (
	// FlagOutFirst marks the first accumulation into Out (allocate in SPM
	// without fetching).
	FlagOutFirst OpFlags = 1 << iota
	// FlagOutLast marks the final accumulation (write back and free).
	FlagOutLast
	// FlagFreeDYA marks operand A as a dY read issued by a dW-side op —
	// free under Options.FreeDYOnDW (Section 3.3 limit study).
	FlagFreeDYA
	// FlagFreeDYB is FlagFreeDYA for operand B.
	FlagFreeDYB
)

// CompiledOp is one lowered tile op: interned operand/output IDs, byte
// sizes and tensor classes resolved at compile time, and the protocol
// booleans folded into Flags. The GEMM tile dimensions stay for the
// systolic cost leaf (precomputed per program by the engine) and tracing.
type CompiledOp struct {
	ABytes, BBytes, OutBytes int64
	A, B, Out                TileID
	Tm, Tk, Tn               int32
	AClass, BClass, OutClass dram.Class
	Kind                     Kind
	Flags                    OpFlags
}

// Kernel names one op stream's span [Start, End) within a program's code
// (or its Order) and the core that runs it. A core-0 kernel opens a phase;
// the kernels after it on cores 1, 2, … run concurrently with it. Phases
// are separate GEMM invocations: the engine flushes the scratchpad between
// them. A program whose kernels all run on core 0 — every single-core
// program — therefore flushes at every kernel boundary, exactly like
// sim.RunSchedules does for []Schedule.
type Kernel struct {
	Name       string
	Start, End int
	Core       int
}

// Program is a compiled schedule sequence ready for sim.CompiledEngine.
//
// A program with a nil Order executes Code in sequence and its kernels
// span Code. A program with Order executes Code[Order[0]], Code[Order[1]],
// … and its kernels span Order instead: Code is then an op table the
// order permutes (or selects from), so many programs can share one lowered
// table and differ only in a []int32 (DESIGN.md §3g). Tiles is the number
// of TileIDs the code uses, 0 … Tiles-1: the engine sizes its residency
// arrays and trace tracks by it.
type Program struct {
	Code    []CompiledOp
	Order   []int32
	Kernels []Kernel
	Tiles   int
	// Release, when set, hands storage the program borrowed back to its
	// builder. sim.RunFamily and sim.RunMultiKeyed call it once a program
	// their caller's builder returned has run, and reference the program
	// no more.
	Release func()
}

// Ops returns the total op count.
func (p *Program) Ops() int {
	if p.Order != nil {
		return len(p.Order)
	}
	return len(p.Code)
}

// compiler interns tile keys and lowers ops. One compiler builds one
// symbol space: compiling several streams through the same compiler makes
// their TileIDs consistent, which is what the shared-scratchpad multi-core
// path needs (a dY tile loaded by one core must carry the same ID in every
// core's stream).
//
// Interning runs on an open-addressed hash table instead of a Go map: the
// table is a flat []int32 into the keys arena, and both survive reset, so
// a pooled compiler interns with zero allocations and no rehashing once
// warm — compilation is on the per-layer hot path of every simulation.
// Only the package's two entry points, LowerShapes and LowerKernels, hold
// a compiler, drawn from one pool.
type compiler struct {
	keys  []TileKey
	table []int32 // open-addressed; index into keys, or freeSlot
	mask  uint32

	// The grid lowerShape is lowering: its parameters, tile counts,
	// per-axis tile extents, and one slot per tile of each tensor, filled
	// on the tile's first use (a zero slot is unfilled).
	params TileParams
	grid   point
	ext    [3][]int32
	slots  [numTensors][]loweredTile
	buf    []loweredTile // backs slots
}

// freeSlot marks an empty interning-table slot.
const freeSlot = int32(-1)

// newCompiler returns an empty compiler.
func newCompiler() *compiler {
	c := &compiler{}
	c.rehash(2048)
	return c
}

// compilers pools the compilers behind LowerShapes and LowerKernels. Each
// goes back reset, so a taken compiler starts an empty symbol space.
var compilers = sync.Pool{New: func() any { return newCompiler() }}

// LowerShapes appends the ops of ps, one shape after another, to dst
// through one pooled compiler, and returns the code and its tile count: each
// shape's backward ops — its dX ops in BaselineDXOrdered's MK order, then
// its dW ops in BaselineDWOrdered's KN order — or, when forward, its ops in
// Forward's order. The code, the TileIDs and the interning order are
// exactly those of LowerKernels over those emitted ops, but each tile is
// built and interned once, on its first use, where the per-op lowering
// builds and hashes three tiles per op. A tile two shapes share carries
// one ID.
func LowerShapes(dst []CompiledOp, forward bool, ps ...TileParams) ([]CompiledOp, int) {
	c := compilers.Get().(*compiler)
	for i := range ps {
		dst = c.lowerShape(dst, &ps[i], forward)
	}
	tiles := len(c.keys)
	c.reset()
	compilers.Put(c)
	return dst, tiles
}

// LowerKernels lowers op streams into prog through one pooled compiler,
// one stream per kernel: prog.Kernels names each kernel and its core, and
// kernel i's ops are ops(i). The code replaces prog.Code, reusing its
// storage, each kernel's span is set to where its ops land, and prog.Tiles
// to the tile count. Ops intern A, B and Out in that order, so a tile
// several streams share carries one ID.
func LowerKernels(prog *Program, ops func(i int) []Op) {
	c := compilers.Get().(*compiler)
	prog.Code = prog.Code[:0]
	for i := range prog.Kernels {
		k, stream := &prog.Kernels[i], ops(i)
		k.Start = len(prog.Code)
		for j := range stream {
			prog.Code = append(prog.Code, c.lower(&stream[j]))
		}
		k.End = len(prog.Code)
	}
	prog.Tiles = len(c.keys)
	c.reset()
	compilers.Put(c)
}

// maxRetainedTable caps the probe-table size and the key arena a pooled
// compiler keeps across reset. Clearing the table is O(len(table)), so one
// giant program must not tax every later small compilation with a
// multi-MiB clear — oversized tables and arenas are dropped and regrown on
// demand instead.
const maxRetainedTable = 1 << 15

// reset empties the symbol table while keeping its capacity (up to
// maxRetainedTable), so a pooled compiler reinterns a same-sized program
// without allocating.
func (c *compiler) reset() {
	c.keys = c.keys[:0]
	if cap(c.keys) > maxRetainedTable {
		c.keys = nil
	}
	if cap(c.buf) > maxRetainedTable {
		c.buf = nil
	}
	if len(c.table) > maxRetainedTable {
		c.table = nil
		c.rehash(2048)
		return
	}
	for i := range c.table {
		c.table[i] = freeSlot
	}
}

func (c *compiler) rehash(size int) {
	if cap(c.table) >= size {
		c.table = c.table[:size]
	} else {
		c.table = make([]int32, size)
	}
	c.mask = uint32(size - 1)
	for i := range c.table {
		c.table[i] = freeSlot
	}
	for i := range c.keys {
		h := hashTileKey(c.keys[i]) & c.mask
		for c.table[h] != freeSlot {
			h = (h + 1) & c.mask
		}
		c.table[h] = int32(i)
	}
}

// hashTileKey packs the 12 key bytes into one word and mixes it
// (splitmix64 finalizer) — cheaper than the runtime's generic struct
// hashing and good enough for open addressing.
func hashTileKey(k TileKey) uint32 {
	x := uint64(k.Class)<<48 | uint64(k.Tensor)<<32 | uint64(uint32(k.Row))
	x ^= uint64(uint32(k.Col)) << 21
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x)
}

// intern returns the TileID for k, assigning the next dense ID on first
// appearance.
//
//lint:hotpath
func (c *compiler) intern(k TileKey) TileID {
	h := hashTileKey(k) & c.mask
	for {
		idx := c.table[h]
		if idx == freeSlot {
			break
		}
		if c.keys[idx] == k {
			return TileID(idx)
		}
		h = (h + 1) & c.mask
	}
	id := len(c.keys)
	if id != int(int32(id)) {
		panic(fmt.Sprintf("schedule: tile table overflows TileID at %d entries", id))
	}
	// Keep the load factor under 3/4; rehashing moves h, so redo the probe.
	if 4*(id+1) > 3*len(c.table) {
		c.rehash(2 * len(c.table))
		h = hashTileKey(k) & c.mask
		for c.table[h] != freeSlot {
			h = (h + 1) & c.mask
		}
	}
	c.table[h] = int32(id)
	c.keys = append(c.keys, k)
	return TileID(id)
}

// loweredTile is an operand as a compiled op carries it: its interned ID,
// tensor class and transfer size.
type loweredTile struct {
	bytes int64
	id    TileID
	class dram.Class
}

// lowerTile interns t.
func (c *compiler) lowerTile(t Tile) loweredTile {
	return loweredTile{bytes: t.Bytes, id: c.intern(t.Key), class: t.Key.Class}
}

// compiledOp assembles one lowered op from its operands, tile GEMM extents
// and accumulation position, folding the protocol and free-dY flags.
func compiledOp(kind Kind, a, b, out loweredTile, tm, tk, tn int32, first, last bool) CompiledOp {
	co := CompiledOp{
		ABytes:   a.bytes,
		BBytes:   b.bytes,
		OutBytes: out.bytes,
		A:        a.id,
		B:        b.id,
		Out:      out.id,
		Tm:       tm,
		Tk:       tk,
		Tn:       tn,
		AClass:   a.class,
		BClass:   b.class,
		OutClass: out.class,
		Kind:     kind,
	}
	if first {
		co.Flags |= FlagOutFirst
	}
	if last {
		co.Flags |= FlagOutLast
	}
	if kind == KindDW {
		if a.class == dram.ClassDY {
			co.Flags |= FlagFreeDYA
		}
		if b.class == dram.ClassDY {
			co.Flags |= FlagFreeDYB
		}
	}
	return co
}

// lower compiles a single op, interning A, B and Out in that order.
func (c *compiler) lower(op *Op) CompiledOp {
	a := c.lowerTile(op.A)
	b := c.lowerTile(op.B)
	out := c.lowerTile(op.Out)
	return compiledOp(op.Kind, a, b, out, int32(op.Tm), int32(op.Tk), int32(op.Tn), op.OutFirst, op.OutLast)
}

// lowerShape appends p's backward ops, or its forward ops when forward,
// to dst, as LowerShapes describes.
func (c *compiler) lowerShape(dst []CompiledOp, p *TileParams, forward bool) []CompiledOp {
	c.startGrid(p)
	if forward {
		return c.lowerGEMM(dst, &fwdGEMM, fwdOrder)
	}
	return c.lowerGEMM(c.lowerGEMM(dst, &dxGEMM, dxMKOrder), &dwGEMM, dwKNOrder)
}

// startGrid empties the per-grid lowering state and sizes it for p.
func (c *compiler) startGrid(p *TileParams) {
	c.params = *p
	c.grid = p.counts()
	for a := range c.ext {
		c.ext[a] = resize(c.ext[a], c.grid[a])
		for i := range c.ext[a] {
			c.ext[a][i] = int32(p.extent(axis(a), i))
		}
	}
	n := 0
	for _, ax := range tensorAxes {
		n += c.grid[ax[0]] * c.grid[ax[1]]
	}
	c.buf = resize(c.buf, n)
	clear(c.buf)
	rest := c.buf
	for t, ax := range tensorAxes {
		n := c.grid[ax[0]] * c.grid[ax[1]]
		c.slots[t], rest = rest[:n:n], rest[n:]
	}
}

// resize returns s with length n, reusing its array when n fits; the
// contents are stale either way.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// lowerGEMM appends g's ops over the current grid to dst, its loops nested
// in order.
//
//lint:hotpath
func (c *compiler) lowerGEMM(dst []CompiledOp, g *gemm, order loopOrder) []CompiledOp {
	cnt := c.grid
	steps := cnt[g.dims[1]]
	em, ek, en := c.ext[g.dims[0]], c.ext[g.dims[1]], c.ext[g.dims[2]]
	a, b, out := c.operand(g.a), c.operand(g.b), c.operand(g.out)
	var pt point
	for pt[order[0]] = 0; pt[order[0]] < cnt[order[0]]; pt[order[0]]++ {
		for pt[order[1]] = 0; pt[order[1]] < cnt[order[1]]; pt[order[1]]++ {
			for pt[order[2]] = 0; pt[order[2]] < cnt[order[2]]; pt[order[2]]++ {
				// Fill in A, B, Out order, the order lower interns in.
				ta, tb, tout := a.at(&pt), b.at(&pt), out.at(&pt)
				if ta.bytes == 0 {
					c.fill(ta, a.t, &pt)
				}
				if tb.bytes == 0 {
					c.fill(tb, b.t, &pt)
				}
				if tout.bytes == 0 {
					c.fill(tout, out.t, &pt)
				}
				red := pt[g.dims[1]]
				dst = append(dst, compiledOp(g.kind, *ta, *tb, *tout,
					em[pt[g.dims[0]]], ek[red], en[pt[g.dims[2]]], red == 0, red == steps-1))
			}
		}
	}
	return dst
}

// gridOperand is one tensor's slots on the current grid: the slot of the
// tile at pt is slots[pt[row]*cols+pt[col]].
type gridOperand struct {
	slots    []loweredTile
	row, col axis
	cols     int
	t        layerTensor
}

func (c *compiler) operand(t layerTensor) gridOperand {
	ax := tensorAxes[t]
	return gridOperand{slots: c.slots[t], row: ax[0], col: ax[1], cols: c.grid[ax[1]], t: t}
}

// at returns the slot of o's tile at pt.
func (o *gridOperand) at(pt *point) *loweredTile {
	return &o.slots[pt[o.row]*o.cols+pt[o.col]]
}

// fill builds and interns the tile of tensor t at pt into its slot, on
// the tile's first use. Every tile has at least one byte; were one empty,
// its slot would just be filled again, and re-interning returns the same
// ID.
func (c *compiler) fill(s *loweredTile, t layerTensor, pt *point) {
	*s = c.lowerTile(c.params.tile(t, *pt))
}
