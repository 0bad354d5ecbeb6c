package schedule

import (
	"reflect"
	"testing"

	"igosim/internal/dram"
	"igosim/internal/tensor"
)

func compileParams() TileParams {
	return TileParams{
		Dims:      tensor.Dims{M: 16, K: 16, N: 16},
		Tiling:    Tiling{Tm: 4, Tk: 4, Tn: 4},
		ElemBytes: 4,
		Layer:     1,
	}
}

// compile lowers each schedule into a core-0 kernel of one program through
// one fresh compiler.
func compile(scheds ...Schedule) Program {
	c := NewCompiler()
	var prog Program
	for _, s := range scheds {
		c.AppendKernel(&prog, s.Name, 0, s.Ops)
	}
	prog.Table = c.Table()
	return prog
}

// TestInternDenseFirstAppearance locks the ID assignment contract: dense,
// in first-appearance order, stable on re-interning.
func TestInternDenseFirstAppearance(t *testing.T) {
	c := NewCompiler()
	keys := []TileKey{
		{Class: dram.ClassDY, Tensor: 9, Row: 0, Col: 0},
		{Class: dram.ClassW, Tensor: 10, Row: 3, Col: 7},
		{Class: dram.ClassDY, Tensor: 9, Row: 0, Col: 1},
	}
	for i, k := range keys {
		if id := c.Intern(k); id != TileID(i) {
			t.Fatalf("Intern(%v) = %d, want %d", k, id, i)
		}
	}
	for i, k := range keys {
		if id := c.Intern(k); id != TileID(i) {
			t.Fatalf("re-Intern(%v) = %d, want %d", k, id, i)
		}
	}
	if c.NumTiles() != len(keys) {
		t.Fatalf("NumTiles = %d, want %d", c.NumTiles(), len(keys))
	}
	if got := c.Table().Keys; !reflect.DeepEqual(got, keys) {
		t.Fatalf("Table.Keys = %v, want %v", got, keys)
	}
}

// TestInternSurvivesRehash pushes the interner far past its initial table
// size; every previously assigned ID must still resolve afterwards.
func TestInternSurvivesRehash(t *testing.T) {
	c := NewCompiler()
	const n = 10_000
	keys := make([]TileKey, n)
	for i := range keys {
		keys[i] = TileKey{Class: dram.Class(i % 7), Tensor: uint16(i % 31), Row: int32(i), Col: int32(i / 3)}
		if id := c.Intern(keys[i]); id != TileID(i) {
			t.Fatalf("Intern #%d = %d", i, id)
		}
	}
	for i := range keys {
		if id := c.Intern(keys[i]); id != TileID(i) {
			t.Fatalf("after rehash: Intern #%d = %d", i, id)
		}
	}
}

// TestCompilerReset checks pooled reuse: after Reset the compiler must
// reproduce a fresh compiler's program exactly.
func TestCompilerReset(t *testing.T) {
	p := compileParams()
	want := compile(BaselineBackward(p))

	c := NewCompiler()
	// Warm with a different symbol space, then reset.
	c.AppendKernel(&Program{}, "warm", 0, PartialStationaryDW(p, 2))
	c.Reset()
	var got Program
	c.AppendKernel(&got, "", 0, BaselineBackward(p).Ops)
	if !reflect.DeepEqual(got.Code, want.Code) {
		t.Fatal("post-Reset code differs from a fresh compiler's")
	}
	if !reflect.DeepEqual(c.Table(), want.Table) {
		t.Fatal("post-Reset table differs from a fresh compiler's")
	}
}

// TestLowerFlags checks the protocol and free-dY bits fold correctly.
func TestLowerFlags(t *testing.T) {
	p := compileParams()
	mt, kt, nt := p.Tiling.Counts(p.Dims)
	c := NewCompiler()

	first := p.DXOp(0, 0, 0, nt)
	co := c.Lower(&first)
	if co.Flags&FlagOutFirst == 0 || co.Flags&FlagOutLast != 0 {
		t.Errorf("dX first accumulation flags = %b", co.Flags)
	}
	if co.Flags&(FlagFreeDYA|FlagFreeDYB) != 0 {
		t.Errorf("dX op carries free-dY flags: %b", co.Flags)
	}
	if co.Kind != KindDX || co.OutClass != dram.ClassDX && co.OutClass != dram.ClassAcc {
		t.Errorf("dX lowering kind/class: %+v", co)
	}

	last := p.DWOp(kt-1, nt-1, mt-1, mt)
	cw := c.Lower(&last)
	if cw.Flags&FlagOutLast == 0 {
		t.Errorf("dW final accumulation flags = %b", cw.Flags)
	}
	// Exactly one dW operand is the dY tile.
	freeBits := cw.Flags & (FlagFreeDYA | FlagFreeDYB)
	if freeBits != FlagFreeDYA && freeBits != FlagFreeDYB {
		t.Errorf("dW free-dY flags = %b, want exactly one operand marked", cw.Flags)
	}
	wantFree := cw.AClass
	if freeBits == FlagFreeDYB {
		wantFree = cw.BClass
	}
	if wantFree != dram.ClassDY {
		t.Errorf("free-dY flag marks a %v operand", wantFree)
	}

	// Byte sizes and IDs must round-trip through the table.
	if co.ABytes != first.A.Bytes || co.BBytes != first.B.Bytes || co.OutBytes != first.Out.Bytes {
		t.Errorf("byte sizes not preserved: %+v vs %+v", co, first)
	}
	tbl := c.Table()
	if tbl.Keys[co.A] != first.A.Key || tbl.Keys[co.B] != first.B.Key || tbl.Keys[co.Out] != first.Out.Key {
		t.Error("interned IDs do not resolve back to the op's keys")
	}
}

// TestCompileKernelBounds checks kernel spans tile the code exactly and
// share one symbol space.
func TestCompileKernelBounds(t *testing.T) {
	p := compileParams()
	dx := Schedule{Name: "dx", Ops: BaselineDX(p)}
	dw := Schedule{Name: "dw", Ops: BaselineDW(p)}
	prog := compile(dx, dw)

	if prog.Ops() != len(dx.Ops)+len(dw.Ops) {
		t.Fatalf("Ops = %d, want %d", prog.Ops(), len(dx.Ops)+len(dw.Ops))
	}
	if len(prog.Kernels) != 2 {
		t.Fatalf("Kernels = %d, want 2", len(prog.Kernels))
	}
	if prog.Kernels[0] != (Kernel{Name: "dx", Start: 0, End: len(dx.Ops)}) {
		t.Errorf("kernel 0 = %+v", prog.Kernels[0])
	}
	if prog.Kernels[1] != (Kernel{Name: "dw", Start: len(dx.Ops), End: prog.Ops()}) {
		t.Errorf("kernel 1 = %+v", prog.Kernels[1])
	}
	// dY tiles appear in both kernels; shared interning must give the dW
	// kernel IDs below the dX kernel's watermark for those tiles.
	dyShared := false
	for _, op := range prog.Code[prog.Kernels[1].Start:] {
		if op.AClass == dram.ClassDY || op.BClass == dram.ClassDY {
			dyShared = true
			break
		}
	}
	if !dyShared {
		t.Error("no dY operand found in the dW kernel")
	}
}
