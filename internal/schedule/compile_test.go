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

// compile lowers each schedule into a core-0 kernel of one program.
func compile(scheds ...Schedule) Program {
	var prog Program
	for _, s := range scheds {
		prog.Kernels = append(prog.Kernels, Kernel{Name: s.Name})
	}
	LowerKernels(&prog, func(i int) []Op { return scheds[i].Ops })
	return prog
}

// TestInternDenseFirstAppearance locks the ID assignment contract: dense,
// in first-appearance order, stable on re-interning.
func TestInternDenseFirstAppearance(t *testing.T) {
	c := newCompiler()
	keys := []TileKey{
		{Class: dram.ClassDY, Tensor: 9, Row: 0, Col: 0},
		{Class: dram.ClassW, Tensor: 10, Row: 3, Col: 7},
		{Class: dram.ClassDY, Tensor: 9, Row: 0, Col: 1},
	}
	for i, k := range keys {
		if id := c.intern(k); id != TileID(i) {
			t.Fatalf("intern(%v) = %d, want %d", k, id, i)
		}
	}
	for i, k := range keys {
		if id := c.intern(k); id != TileID(i) {
			t.Fatalf("re-intern(%v) = %d, want %d", k, id, i)
		}
	}
	if !reflect.DeepEqual(c.keys, keys) {
		t.Fatalf("keys = %v, want %v", c.keys, keys)
	}
}

// TestInternSurvivesRehash pushes the interner far past its initial table
// size; every previously assigned ID must still resolve afterwards.
func TestInternSurvivesRehash(t *testing.T) {
	c := newCompiler()
	const n = 10_000
	keys := make([]TileKey, n)
	for i := range keys {
		keys[i] = TileKey{Class: dram.Class(i % 7), Tensor: uint16(i % 31), Row: int32(i), Col: int32(i / 3)}
		if id := c.intern(keys[i]); id != TileID(i) {
			t.Fatalf("intern #%d = %d", i, id)
		}
	}
	for i := range keys {
		if id := c.intern(keys[i]); id != TileID(i) {
			t.Fatalf("after rehash: intern #%d = %d", i, id)
		}
	}
}

// TestCompilerReset checks pooled reuse: after reset the compiler must
// reproduce a fresh compiler's code and keys exactly.
func TestCompilerReset(t *testing.T) {
	p := compileParams()
	ops := BaselineBackward(p).Ops
	fresh := newCompiler()
	want := lowerOps(fresh, nil, ops)

	c := newCompiler()
	// Warm with a different symbol space, then reset.
	lowerOps(c, nil, PartialStationaryDW(p, 2))
	c.reset()
	if got := lowerOps(c, nil, ops); !reflect.DeepEqual(got, want) {
		t.Fatal("post-reset code differs from a fresh compiler's")
	}
	if !reflect.DeepEqual(c.keys, fresh.keys) {
		t.Fatal("post-reset keys differ from a fresh compiler's")
	}
}

// TestLowerFlags checks the protocol and free-dY bits fold correctly.
func TestLowerFlags(t *testing.T) {
	p := compileParams()
	mt, kt, nt := p.Tiling.Counts(p.Dims)
	c := newCompiler()

	first := p.DXOp(0, 0, 0, nt)
	co := c.lower(&first)
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
	cw := c.lower(&last)
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

	// Byte sizes and IDs must round-trip through the keys.
	if co.ABytes != first.A.Bytes || co.BBytes != first.B.Bytes || co.OutBytes != first.Out.Bytes {
		t.Errorf("byte sizes not preserved: %+v vs %+v", co, first)
	}
	if c.keys[co.A] != first.A.Key || c.keys[co.B] != first.B.Key || c.keys[co.Out] != first.Out.Key {
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
