package sim

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/systolic"
	"igosim/internal/tensor"
)

// classProgram returns a single-core program of 2n ops over exactly n cost
// classes: op i has tile shape (i mod n + 1, 4, 4) and three tiles of its
// own, so every op misses all of them, moves the same 192 bytes in three
// bursts and differs from the other classes by its shape alone.
func classProgram(n int) *schedule.Program {
	prog := &schedule.Program{Kernels: []schedule.Kernel{{Name: "classes", End: 2 * n}}, Tiles: 6 * n}
	for i := range 2 * n {
		id := schedule.TileID(3 * i)
		prog.Code = append(prog.Code, schedule.CompiledOp{
			ABytes: 64, BBytes: 64, OutBytes: 64,
			A: id, B: id + 1, Out: id + 2,
			Tm: int32(i%n + 1), Tk: 4, Tn: 4,
			Flags: schedule.FlagOutFirst | schedule.FlagOutLast,
		})
	}
	return prog
}

// classCycles derives classProgram's cycle counts under cfg from the
// pipeline recurrence by hand, each op's compute time raised by skew: no
// op hits, so its transfer cost is known without the residency model.
func classCycles(cfg config.NPU, prog *schedule.Program, skew int64) (cycles, compSum, memSum int64) {
	arr := systolic.New(cfg)
	chn := dram.Channel{BytesPerCycle: cfg.BytesPerCycle(), BurstLatency: cfg.DRAMLatency}
	var memDone, compDone, prevCompEnd int64
	for _, op := range prog.Code {
		mem := chn.TransferCycles(192, 3)
		comp := arr.TileCycles(int(op.Tm), int(op.Tk), int(op.Tn)) + skew
		memEnd := max(memDone, prevCompEnd) + mem
		memDone, prevCompEnd, compDone = memEnd, compDone, max(compDone, memEnd)+comp
		compSum += comp
		memSum += mem
	}
	return compDone, compSum, memSum
}

// classCostPoints varies every replay-safe cost axis of testCfg.
func classCostPoints() []config.NPU {
	base := testCfg()
	wide, slow, clocked, ws := base, base, base, base
	wide.DRAMBandwidth *= 4
	slow.DRAMBandwidth, slow.DRAMLatency = base.DRAMBandwidth/3, 7
	clocked.FrequencyHz /= 2
	ws.ArrayRows, ws.ArrayCols, ws.Dataflow = 8, 2, config.WeightStationary
	return []config.NPU{base, wide, slow, clocked, ws}
}

// TestTraceOverClassLimitStaysOnEngine resolves a program with one cost
// class more than a code can name: it has no trace, a keyed run admits
// nothing, and every result is the engine's.
func TestTraceOverClassLimitStaysOnEngine(t *testing.T) {
	ResetResolvedCache()
	defer ResetResolvedCache()
	prog := classProgram(maxClasses + 1)
	key := new(byte)
	for i, cfg := range classCostPoints() {
		want := ExecuteProgram(cfg, Options{}, prog)
		if res, rt := ResolveProgram(cfg, Options{}, prog); rt != nil || !reflect.DeepEqual(res, want) {
			t.Fatalf("point %d: ResolveProgram = %+v with trace %v, want %+v and no trace", i, res, rt != nil, want)
		}
		got := RunFamily(cfg, Options{}, key, 1, func(int) *schedule.Program { return prog }).Result(0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("point %d: keyed run %+v != engine %+v", i, got, want)
		}
	}
	if n := ResolvedCacheBytes(); n != 0 {
		t.Fatalf("an unrepresentable trace was admitted: the cache holds %d bytes", n)
	}
}

// TestTraceAtClassLimitReplaysExactly resolves a program with exactly
// maxClasses cost classes: it is admitted, and its replays match the
// engine at every cost point and, under an injected skew, the recurrence
// with every op's compute time raised by it.
func TestTraceAtClassLimitReplaysExactly(t *testing.T) {
	ResetResolvedCache()
	defer ResetResolvedCache()
	prog := classProgram(maxClasses)
	_, rt := ResolveProgram(testCfg(), Options{}, prog)
	if rt == nil || len(rt.classes) != maxClasses || rt.Ops() != 2*maxClasses {
		t.Fatalf("trace %v: want %d classes over %d ops", rt != nil, maxClasses, 2*maxClasses)
	}
	key := new(byte)
	RunFamily(testCfg(), Options{}, key, 1, func(int) *schedule.Program { return prog })
	if ResolvedCacheBytes() == 0 {
		t.Fatal("a representable trace was not admitted")
	}
	for _, skew := range []int64{0, 5} {
		prev := SetReplaySkew(skew)
		for i, cfg := range classCostPoints() {
			want := ExecuteProgram(cfg, Options{}, prog)
			want.Cycles, want.ComputeCycles, want.MemCycles = classCycles(cfg, prog, skew)
			if skew == 0 {
				if engine := ExecuteProgram(cfg, Options{}, prog); !reflect.DeepEqual(engine, want) {
					t.Fatalf("point %d: engine %+v != hand recurrence %+v", i, engine, want)
				}
			}
			if got := rt.Replay(cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("skew %d point %d: replay %+v != %+v", skew, i, got, want)
			}
			got := RunFamily(cfg, Options{}, key, 1, func(int) *schedule.Program {
				t.Fatal("a cached trace was rebuilt")
				return nil
			}).Result(0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("skew %d point %d: cached replay %+v != %+v", skew, i, got, want)
			}
		}
		SetReplaySkew(prev)
	}
}

// TestResolvedCacheWeighsRealSize fills the trace cache with the traces of
// backward programs over a range of shapes and capacities and compares
// its weight with the live heap it frees when dropped, which must be
// within a quarter of it: the byte budget bounds memory only if entries
// weigh about what they pin.
func TestResolvedCacheWeighsRealSize(t *testing.T) {
	ResetResolvedCache()
	defer ResetResolvedCache()
	entries := 0
	for _, spm := range []int64{4 << 10, 16 << 10} {
		cfg := testCfg()
		cfg.SPMBytes = spm
		for m := 8; m <= 64; m += 8 {
			for n := 8; n <= 48; n += 8 {
				p := params(tensor.Dims{M: m, K: 64, N: n}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
				prog := CompileSchedules(
					schedule.Schedule{Name: "dX", Ops: schedule.BaselineDX(p)},
					schedule.Schedule{Name: "dW", Ops: schedule.BaselineDW(p)})
				RunFamily(cfg, Options{}, [2]int{m, n}, 1, func(int) *schedule.Program { return prog })
				entries++
			}
		}
	}
	if got := ResolvedCacheStats().Entries; got != int64(entries) {
		t.Fatalf("census holds %d keys, want %d", got, entries)
	}
	weight := resolvedCache.Weight()
	live := func() int64 {
		// Two collections: the first only moves pooled engines to the
		// pools' victim caches, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	resolvedCache.Reset()
	freed := before - live()
	t.Logf("%d entries weigh %d bytes; dropping them freed %d", entries, weight, freed)
	if w := int64(weight); 5*freed < 4*w || 4*freed > 5*w {
		t.Fatalf("%d entries weigh %d bytes but pinned %d", entries, weight, freed)
	}
}

// TestRunFamilySingleFlight starts callers goroutines that miss one family
// key at once, each at its own bandwidth: the first to arrive resolves the
// family while the others wait for it. A family whose traces are admitted
// is built and resolved once, member by member, and the waiters replay its
// traces; a family with an unrepresentable member is not admitted, so each
// waiter resolves it again, as an uncached run would. Every caller reads
// the engine's results for its configuration either way.
func TestRunFamilySingleFlight(t *testing.T) {
	const callers = 8
	for _, tc := range []struct {
		name     string
		classes  []int // per member
		admitted bool
	}{
		{"admitted", []int{4, 5, 6}, true},
		{"unrepresentable", []int{4, maxClasses + 1}, false},
	} {
		ResetResolvedCache()
		progs := make([]*schedule.Program, len(tc.classes))
		for i, n := range tc.classes {
			progs[i] = classProgram(n)
		}
		n := len(progs)
		before := ResolvedCacheStats()
		var builds atomic.Int64
		var joined sync.Once
		member := func(i int) *schedule.Program {
			// The first build holds the leader until every other caller
			// has joined its flight (or a second passes: without
			// single-flight no one joins, and the counts below fail).
			joined.Do(func() {
				deadline := time.Now().Add(time.Second)
				for ResolvedCacheStats().Coalesced-before.Coalesced < callers-1 && time.Now().Before(deadline) {
					runtime.Gosched()
				}
			})
			builds.Add(1)
			return progs[i]
		}
		var wg sync.WaitGroup
		for g := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := testCfg().WithBandwidth(float64(g+1) * 2e9)
				fam := RunFamily(cfg, Options{}, "single-flight", n, member)
				for i, prog := range progs {
					if got, want := fam.Result(i), ExecuteProgram(cfg, Options{}, prog); !reflect.DeepEqual(got, want) {
						t.Errorf("%s caller %d member %d: %+v != engine %+v", tc.name, g, i, got, want)
					}
				}
			}()
		}
		wg.Wait()

		resolvers := int64(1)
		if !tc.admitted {
			resolvers = callers
		}
		after := ResolvedCacheStats()
		if got := after.Coalesced - before.Coalesced; got != callers-1 {
			t.Errorf("%s: %d callers waited, want %d", tc.name, got, callers-1)
		}
		if got, want := builds.Load(), resolvers*int64(n); got != want {
			t.Errorf("%s: %d members built, want %d", tc.name, got, want)
		}
		if got, want := ResolvedPhaseStats().Resolutions, resolvers*int64(n); got != want {
			t.Errorf("%s: %d resolutions, want %d", tc.name, got, want)
		}
		if got := after.Entries; got != int64(n) {
			t.Errorf("%s: census %d, want %d", tc.name, got, n)
		}
		if admitted := ResolvedCacheBytes() > 0; admitted != tc.admitted {
			t.Errorf("%s: admitted %v, want %v", tc.name, admitted, tc.admitted)
		}
	}
	ResetResolvedCache()
}
