package proptest

import (
	"bytes"
	"reflect"
	"testing"

	"igosim/internal/refmodel"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/trace"
)

// The fuzz targets decode their input bytes through the same Source /
// GenCase pipeline the property suite samples from, so the fuzzing engine
// mutates directly in case space: every interesting byte flip lands on a
// shape, tiling, capacity or variant decision. Seed corpora live under
// testdata/fuzz/<FuzzName>/ and replay as ordinary subtests in plain
// `go test`; `make fuzz-short` runs each target's mutation loop.

// FuzzBackwardSchedules holds every decoded schedule variant to the
// structural invariant and to bit-exact oracle agreement — the two
// properties whose violations have historically been real bugs rather than
// spec drift.
func FuzzBackwardSchedules(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x80, 0xff, 0x13, 0x07, 0x3a, 0x42, 0x00, 0x55, 0xaa})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := GenCase(FromBytes(data))
		if err := CheckStructure(c); err != nil {
			t.Fatalf("structure: %v\n  case: %v", err, c)
		}
		if err := CheckOracle(c); err != nil {
			t.Fatalf("oracle: %v\n  case: %v", err, c)
		}
	})
}

// FuzzTilingCounts checks the tiling arithmetic every generator builds on:
// tile extents partition each dimension exactly, the forward stream passes
// its verifier, and each chunked partial-stationary stream is a
// permutation of the baseline's op multiset for any chunk size, in-range
// or not (the clamp must absorb 0, negative and oversized chunks).
func FuzzTilingCounts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x1f, 0x08, 0x40, 0x02, 0x9c})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := FromBytes(data)
		d := tensor.Dims{M: s.IntRange(1, 96), K: s.IntRange(1, 96), N: s.IntRange(1, 96)}
		tl := schedule.Tiling{Tm: s.IntRange(1, d.M+3), Tk: s.IntRange(1, d.K+3), Tn: s.IntRange(1, d.N+3)}
		chunk := s.IntRange(-2, 20)

		mt, kt, nt := tl.Counts(d)
		if mt < 1 || kt < 1 || nt < 1 {
			t.Fatalf("tile grid %dx%dx%d for %v under %v", mt, kt, nt, d, tl)
		}
		for _, dim := range []struct {
			tiles, tile, total int
		}{{mt, tl.Tm, d.M}, {kt, tl.Tk, d.K}, {nt, tl.Tn, d.N}} {
			sum := 0
			for i := 0; i < dim.tiles; i++ {
				e := min(dim.tile, dim.total-i*dim.tile)
				if e <= 0 {
					t.Fatalf("tile %d of %d has extent %d (tile %d, total %d)", i, dim.tiles, e, dim.tile, dim.total)
				}
				sum += e
			}
			if sum != dim.total {
				t.Fatalf("tile extents sum to %d, want %d", sum, dim.total)
			}
		}

		p := schedule.TileParams{Dims: d, Tiling: tl, ElemBytes: 4, Layer: 1}
		if err := schedule.VerifyForward(p, schedule.Forward(p).Ops); err != nil {
			t.Fatalf("forward: %v", err)
		}
		base := append(schedule.BaselineDX(p), schedule.BaselineDW(p)...)
		for _, chunked := range [][]schedule.Op{
			append(schedule.PartialStationaryDX(p, chunk), schedule.PartialStationaryDW(p, chunk)...),
			append(schedule.PartialStationaryDXCols(p, chunk), schedule.PartialStationaryDWCols(p, chunk)...),
		} {
			if err := schedule.VerifyBackward(p, chunked, false); err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			if err := sameOpMultiset(base, chunked); err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
		}
	})
}

// FuzzCompiledEngine fuzzes the engine's entry points in case space:
// bit-exact agreement with each other and the refmodel oracle in both
// free-dY modes (CheckCompiledEquivalence), and tracing as pure
// observation — a traced run reconciles, returns the untraced result, and
// exports the same bytes whether the schedules are lowered per call, run
// as a retained program, or run as that program permuted through an
// Order. A multi-core leg runs the case's MultiPhases on its MultiConfig:
// the oracle agrees in both placements (CheckMultiOracle), and a traced
// run reconciles and returns the untraced MultiResult.
func FuzzCompiledEngine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x41, 0x17, 0x88, 0x0c, 0x3d, 0x5e, 0x99, 0x21, 0x6f})
	f.Add([]byte{0xca, 0xfe, 0x10, 0x07, 0x64, 0x2b, 0x90, 0x00, 0xee, 0x31, 0x5a, 0x7d})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := GenCase(FromBytes(data))
		if err := CheckCompiledEquivalence(c); err != nil {
			t.Fatalf("compiled-equivalence: %v\n  case: %v", err, c)
		}
		cfg, scheds := c.Config(), c.Schedules()
		want := sim.RunSchedules(cfg, sim.Options{}, scheds...)
		var dumps [3]bytes.Buffer
		for i, run := range []func(sim.Options) sim.Result{
			func(o sim.Options) sim.Result { return sim.RunSchedules(cfg, o, scheds...) },
			func(o sim.Options) sim.Result { return sim.ExecuteProgram(cfg, o, sim.CompileSchedules(scheds...)) },
			func(o sim.Options) sim.Result {
				return sim.ExecuteProgram(cfg, o, permuted(sim.CompileSchedules(scheds...)))
			},
		} {
			snk := trace.New()
			if got := run(sim.Options{Trace: snk, TraceLabel: "fuzz"}); got != want {
				t.Fatalf("path %d: traced %+v != untraced %+v\n  case: %v", i, got, want, c)
			}
			if err := snk.Check(); err != nil {
				t.Fatalf("path %d: trace reconciliation: %v\n  case: %v", i, err, c)
			}
			if err := snk.WriteJSON(&dumps[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < len(dumps); i++ {
			if !bytes.Equal(dumps[0].Bytes(), dumps[i].Bytes()) {
				t.Fatalf("path %d: retained-program trace differs from RunSchedules trace\n  case: %v", i, c)
			}
		}

		if err := CheckMultiOracle(c); err != nil {
			t.Fatalf("multi-oracle: %v\n  case: %v", err, c)
		}
		mcfg, phases := c.MultiConfig(), c.MultiPhases()
		for _, shared := range []bool{true, false} {
			want := sim.RunMultiPhased(mcfg, sim.Options{}, phases, shared)
			snk := trace.New()
			got := sim.RunMultiPhased(mcfg, sim.Options{Trace: snk, TraceLabel: "fuzz"}, phases, shared)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shared=%v: traced %+v != untraced %+v\n  case: %v", shared, got, want, c)
			}
			if err := snk.Check(); err != nil {
				t.Fatalf("shared=%v: trace reconciliation: %v\n  case: %v", shared, err, c)
			}
		}
	})
}

// opIdentity is the order-free identity of a tile op: its computation and
// data movement, everything but stream position and OutFirst/OutLast
// placement (which depend on order by design).
type opIdentity struct {
	kind       schedule.Kind
	a, b, out  schedule.TileKey
	tm, tk, tn int
	bytes      [3]int64
}

func sameOpMultiset(want, got []schedule.Op) error {
	count := make(map[opIdentity]int)
	id := func(op *schedule.Op) opIdentity {
		return opIdentity{
			kind: op.Kind, a: op.A.Key, b: op.B.Key, out: op.Out.Key,
			tm: op.Tm, tk: op.Tk, tn: op.Tn,
			bytes: [3]int64{op.A.Bytes, op.B.Bytes, op.Out.Bytes},
		}
	}
	for i := range want {
		count[id(&want[i])]++
	}
	for i := range got {
		k := id(&got[i])
		count[k]--
		if count[k] < 0 {
			return errExtraOp(got[i])
		}
	}
	if len(got) != len(want) {
		return errOpCount(len(got), len(want))
	}
	return nil
}

func errExtraOp(op schedule.Op) error {
	return &multisetError{op: &op}
}

func errOpCount(got, want int) error {
	return &multisetError{got: got, want: want}
}

type multisetError struct {
	op        *schedule.Op
	got, want int
}

func (e *multisetError) Error() string {
	if e.op != nil {
		return "op not in baseline multiset: " + e.op.Out.Key.Class.String()
	}
	return "op count mismatch"
}

// TestRefmodelSmoke keeps one direct compile-time dependency on refmodel's
// exported API in this package's tests so `go test ./internal/proptest/`
// fails loudly if the oracle's surface drifts from what CheckOracle needs.
func TestRefmodelSmoke(t *testing.T) {
	t.Parallel()
	c := GenCase(NewSource(1))
	got := sim.RunSchedules(c.Config(), sim.Options{}, c.Schedules()...)
	want := refmodel.ReplaySchedules(c.Config(), refmodel.Options{}, c.Schedules()...)
	if err := refmodel.Compare(got, want); err != nil {
		t.Fatal(err)
	}
}

// FuzzResolvedReplay fuzzes the two-phase execution path in case space:
// a trace resolved at the decoded case's base hardware point must replay
// bit-exactly at every cost variant against a fresh engine run and the
// refmodel oracle, in both dY regimes — for the case's single-core
// schedules (CheckResolvedReplay) and its multi-core phases under both
// placements (CheckMultiReplay).
func FuzzResolvedReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x2e, 0x71, 0x1b, 0xc5, 0x08, 0x93, 0x60, 0x12, 0xfa})
	f.Add([]byte{0xb1, 0x6b, 0x00, 0xd5, 0x27, 0x4c, 0x8e, 0x39, 0xf0, 0x1e, 0x66, 0xa2})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := GenCase(FromBytes(data))
		if err := CheckResolvedReplay(c); err != nil {
			t.Fatalf("resolved-replay: %v\n  case: %v", err, c)
		}
		if err := CheckMultiReplay(c); err != nil {
			t.Fatalf("multi-replay: %v\n  case: %v", err, c)
		}
	})
}
