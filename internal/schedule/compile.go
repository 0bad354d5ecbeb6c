package schedule

import (
	"fmt"

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

// TileTable is a program's symbol table: Keys[id] is the TileKey interned
// as TileID id. The engine only needs its length (to size the residency
// arrays); the keys themselves serve tracing and debugging.
type TileTable struct {
	Keys []TileKey
}

// Len returns the number of interned tiles.
func (t TileTable) Len() int { return len(t.Keys) }

// Program is a compiled schedule sequence ready for sim.CompiledEngine.
//
// A program with a nil Order executes Code in sequence and its kernels
// span Code. A program with Order executes Code[Order[0]], Code[Order[1]],
// … and its kernels span Order instead: Code is then an op table the
// order permutes (or selects from), so many programs can share one lowered
// table and differ only in a []int32 (DESIGN.md §3g).
type Program struct {
	Code    []CompiledOp
	Order   []int32
	Kernels []Kernel
	Table   TileTable
}

// Ops returns the total op count.
func (p *Program) Ops() int {
	if p.Order != nil {
		return len(p.Order)
	}
	return len(p.Code)
}

// Compiler interns tile keys and lowers ops. One compiler builds one symbol
// space: compiling several streams through the same compiler makes their
// TileIDs consistent, which is what the shared-scratchpad multi-core path
// needs (a dY tile loaded by one core must carry the same ID in every
// core's stream).
//
// Interning runs on an open-addressed hash table instead of a Go map: the
// table is a flat []int32 that survives Reset, so a pooled compiler interns
// with zero allocations and no rehashing once warm — compilation is on the
// per-layer hot path of every simulation.
type Compiler struct {
	keys  []TileKey
	table []int32 // open-addressed; index into keys, or freeSlot
	mask  uint32
}

// freeSlot marks an empty interning-table slot.
const freeSlot = int32(-1)

// NewCompiler returns an empty compiler.
func NewCompiler() *Compiler {
	c := &Compiler{}
	c.rehash(2048)
	return c
}

// maxRetainedTable caps the probe-table size a pooled compiler keeps
// across Reset. Clearing the table is O(len(table)), so one giant program
// must not tax every later small compilation with a multi-MiB clear —
// oversized tables are dropped and regrown on demand instead.
const maxRetainedTable = 1 << 15

// Reset empties the symbol table while keeping its capacity (up to
// maxRetainedTable), so a pooled compiler reinterns a same-sized program
// without allocating.
func (c *Compiler) Reset() {
	c.keys = c.keys[:0]
	if len(c.table) > maxRetainedTable {
		c.table = nil
		c.rehash(2048)
		return
	}
	for i := range c.table {
		c.table[i] = freeSlot
	}
}

func (c *Compiler) rehash(size int) {
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

// Intern returns the TileID for k, assigning the next dense ID on first
// appearance.
//
//lint:hotpath
func (c *Compiler) Intern(k TileKey) TileID {
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

// NumTiles returns the number of tiles interned so far.
func (c *Compiler) NumTiles() int { return len(c.keys) }

// Table snapshots the symbol table. Valid for all code compiled so far;
// take it after the last Compile*/Intern call.
func (c *Compiler) Table() TileTable { return TileTable{Keys: c.keys} }

// DetachTable returns the symbol table and transfers ownership of the key
// storage to the caller: the compiler forgets its keys, so a pooled
// compiler can hand a retained program its table without aliasing. The
// probe table still references the detached keys until the next Reset,
// which every pooled reuse performs first.
func (c *Compiler) DetachTable() TileTable {
	t := TileTable{Keys: c.keys}
	c.keys = nil
	return t
}

// Lower compiles a single op.
func (c *Compiler) Lower(op *Op) CompiledOp {
	co := CompiledOp{
		ABytes:   op.A.Bytes,
		BBytes:   op.B.Bytes,
		OutBytes: op.Out.Bytes,
		A:        c.Intern(op.A.Key),
		B:        c.Intern(op.B.Key),
		Out:      c.Intern(op.Out.Key),
		Tm:       int32(op.Tm),
		Tk:       int32(op.Tk),
		Tn:       int32(op.Tn),
		AClass:   op.A.Key.Class,
		BClass:   op.B.Key.Class,
		OutClass: op.Out.Key.Class,
		Kind:     op.Kind,
	}
	if op.OutFirst {
		co.Flags |= FlagOutFirst
	}
	if op.OutLast {
		co.Flags |= FlagOutLast
	}
	if op.Kind == KindDW {
		if op.A.Key.Class == dram.ClassDY {
			co.Flags |= FlagFreeDYA
		}
		if op.B.Key.Class == dram.ClassDY {
			co.Flags |= FlagFreeDYB
		}
	}
	return co
}

// AppendKernel lowers ops into prog as one kernel named name on core core:
// the code extends prog.Code and the kernel prog.Kernels. Every path from
// materialized ops to a program lowers through it; the caller sets
// prog.Table once the last kernel is in.
func (c *Compiler) AppendKernel(prog *Program, name string, core int, ops []Op) {
	start := len(prog.Code)
	for i := range ops {
		prog.Code = append(prog.Code, c.Lower(&ops[i]))
	}
	prog.Kernels = append(prog.Kernels, Kernel{Name: name, Start: start, End: len(prog.Code), Core: core})
}

// CompileStream lowers a stream without materializing it, appending the
// code to dst: the only allocation is dst's growth, none if it has room.
func (c *Compiler) CompileStream(dst []CompiledOp, s OpStream) []CompiledOp {
	s(func(op *Op) bool {
		dst = append(dst, c.Lower(op))
		return true
	})
	return dst
}

// Compile lowers a schedule sequence into one program. Each schedule
// becomes a core-0 kernel (flushed boundary); tile IDs are shared across
// kernels so a tile's identity is its TileKey across the whole program.
func Compile(scheds ...Schedule) Program {
	c := NewCompiler()
	var prog Program
	for _, s := range scheds {
		c.AppendKernel(&prog, s.Name, 0, s.Ops)
	}
	prog.Table = c.Table()
	return prog
}
