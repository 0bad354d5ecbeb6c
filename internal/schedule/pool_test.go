package schedule

import (
	"reflect"
	"sync"
	"testing"

	"igosim/internal/tensor"
)

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestWarmLoweringAllocs holds both entry points to zero allocations once
// the pool is warm: a same-sized shape lowered into a pre-sized
// destination, and op streams lowered into a program whose code has room,
// reuse the pooled compiler's probe table, key arena and grid slots.
func TestWarmLoweringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need sync.Pool reuse, which the race detector defeats")
	}
	p := lowerCases()[0].parts[0]
	dst := make([]CompiledOp, 0, 2*p.OpCount())
	LowerShapes(dst, false, p)
	if n := testing.AllocsPerRun(100, func() { LowerShapes(dst, false, p) }); n != 0 {
		t.Errorf("warm LowerShapes allocates %v times, want 0", n)
	}
	ops := BaselineBackward(p).Ops
	prog := Program{Code: make([]CompiledOp, 0, len(ops)), Kernels: make([]Kernel, 1)}
	stream := func(int) []Op { return ops }
	LowerKernels(&prog, stream)
	if n := testing.AllocsPerRun(100, func() { LowerKernels(&prog, stream) }); n != 0 {
		t.Errorf("warm LowerKernels allocates %v times, want 0", n)
	}
}

// TestResetDropsOversizedArena checks the retention cap: a lowering that
// interns more than maxRetainedTable tiles leaves a key arena and probe
// table past the cap, and reset drops both, while a small lowering's
// survive it.
func TestResetDropsOversizedArena(t *testing.T) {
	c := newCompiler()
	small := compileParams()
	c.lowerShape(nil, &small, false)
	c.reset()
	if cap(c.keys) == 0 {
		t.Fatal("reset dropped a small key arena")
	}
	// One tile along K: ~1.4·10⁵ ops intern more than 33 000 dY tiles.
	big := TileParams{Dims: tensor.Dims{M: 184, K: 4, N: 184}, Tiling: Tiling{Tm: 1, Tk: 4, Tn: 1}, ElemBytes: 4, Layer: 1}
	c.lowerShape(nil, &big, false)
	if len(c.keys) <= maxRetainedTable {
		t.Fatalf("oversized shape interned %d tiles, want more than %d", len(c.keys), maxRetainedTable)
	}
	c.reset()
	if c.keys != nil || len(c.table) > maxRetainedTable {
		t.Errorf("after reset: key arena cap %d, probe table %d slots; want nil and at most %d", cap(c.keys), len(c.table), maxRetainedTable)
	}
}

// TestPoolConcurrent lowers shapes, backward and forward, and op streams
// from 16 goroutines at once through the shared pool: every call must
// return the code and tile count of a serial call.
func TestPoolConcurrent(t *testing.T) {
	type lowered struct {
		code  []CompiledOp
		tiles int
	}
	cases := lowerCases()
	lower := func(lc lowerCase) [3]lowered {
		var out [3]lowered
		out[0].code, out[0].tiles = LowerShapes(nil, false, lc.parts...)
		out[1].code, out[1].tiles = LowerShapes(nil, true, lc.parts...)
		prog := Program{Kernels: make([]Kernel, len(lc.parts))}
		LowerKernels(&prog, func(i int) []Op { return BaselineBackward(lc.parts[i]).Ops })
		out[2] = lowered{prog.Code, prog.Tiles}
		return out
	}
	want := make([][3]lowered, len(cases))
	for i, lc := range cases {
		want[i] = lower(lc)
	}
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 2 * len(cases) {
				i := (g + r) % len(cases)
				if got := lower(cases[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, case %s: concurrent lowering differs from a serial one", g, cases[i].name)
					return
				}
			}
		}()
	}
	wg.Wait()
}
