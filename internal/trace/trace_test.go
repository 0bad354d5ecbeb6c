// Tests live in trace_test because they drive the real engine (internal/sim
// imports trace, so an internal test package would cycle).
package trace_test

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dram"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/stats"
	"igosim/internal/tensor"
	"igosim/internal/trace"
)

// tinyCfg mirrors the scaled-down NPU the core tests use: small enough that
// a layer simulates in microseconds, small enough SPM that eviction and
// spill paths actually fire.
func tinyCfg() config.NPU {
	return config.NPU{
		Name: "tiny", ArrayRows: 8, ArrayCols: 8, Cores: 1,
		SPMBytes: 32 << 10, DRAMBandwidth: 8e9, DRAMLatency: 10,
		FrequencyHz: 1e9, ElemBytes: 4, Batch: 2,
	}
}

// TestDisabledPathZeroAllocs enforces the package's overhead contract: with
// tracing disabled (nil sink / nil track) every emission method must return
// without allocating. This is the `make trace-check` gate.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var s *trace.Sink
	var tr *trace.Track
	allocs := testing.AllocsPerRun(1000, func() {
		if s.Enabled() {
			t.Fatal("nil sink reports enabled")
		}
		if got := s.NewTrack("x"); got != nil {
			t.Fatal("nil sink built a track")
		}
		tr.SetCapacity(1 << 20)
		tr.Compute("dx", 0, 5, 8, 8, 8)
		tr.DMA(0, 3, 256, 0, 0, 1)
		tr.Stall(2, 1)
		tr.Spill(0, 256)
		tr.Occupancy(0, 512)
		tr.Bind(64)
		tr.Access(3, dram.ClassDY)
		tr.Release()
		tr.Phase("kernel", 0, 5)
		s.Task(0, 0, time.Time{}, time.Time{})
		s.MemoHit("cache", "label")
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocates: %.1f allocs/op, want 0", allocs)
	}
}

// TestTracingDoesNotChangeResults is the bit-identity half of the overhead
// contract: the traced and untraced simulations must produce equal results.
func TestTracingDoesNotChangeResults(t *testing.T) {
	cfg := tinyCfg()
	p := core.LayerParams(tensor.Dims{M: 64, K: 48, N: 32}, 1, cfg)
	for _, sched := range []schedule.Schedule{
		core.InterleaveDXMajor(p),
		core.InterleaveDWMajor(p),
		core.InterleaveOnly(p),
	} {
		plain := sim.RunSchedules(cfg, sim.Options{}, sched)
		traced := sim.RunSchedules(cfg, sim.Options{Trace: trace.New(), TraceLabel: "t"}, sched)
		if plain != traced {
			t.Fatalf("%s: traced result differs:\nplain  %+v\ntraced %+v", sched.Name, plain, traced)
		}
	}
}

// TestReconciliation checks the headline invariant: the trace's stall
// attribution must account for every simulated cycle of the engine result —
// computeBusy + stallDMA + stallSpill == Result.Cycles, per track and in
// aggregate.
func TestReconciliation(t *testing.T) {
	cfg := tinyCfg()
	for _, d := range []tensor.Dims{
		{M: 64, K: 48, N: 32},
		{M: 16, K: 128, N: 16},
		{M: 128, K: 16, N: 96},
	} {
		p := core.LayerParams(d, 1, cfg)
		for _, sched := range []schedule.Schedule{
			core.InterleaveDXMajor(p),
			core.InterleaveDWMajor(p),
		} {
			sink := trace.New()
			res := sim.RunSchedules(cfg, sim.Options{Trace: sink, TraceLabel: "recon"}, sched)
			if err := sink.Check(); err != nil {
				t.Fatalf("%v %s: %v", d, sched.Name, err)
			}
			m := sink.Metrics()
			if got := m.ComputeBusy + m.StallDMA + m.StallSpill; got != res.Cycles {
				t.Fatalf("%v %s: attribution %d != makespan %d", d, sched.Name, got, res.Cycles)
			}
			if m.Cycles != res.Cycles {
				t.Fatalf("%v %s: trace makespan %d != result %d", d, sched.Name, m.Cycles, res.Cycles)
			}
			if m.Ops != res.Ops {
				t.Fatalf("%v %s: trace ops %d != result %d", d, sched.Name, m.Ops, res.Ops)
			}
			if m.Spills != res.Spills {
				t.Fatalf("%v %s: trace spills %d != result %d", d, sched.Name, m.Spills, res.Spills)
			}
			if m.OccHWM <= 0 || m.OccHWM > m.OccCap {
				t.Fatalf("%v %s: occupancy HWM %d outside (0, %d]", d, sched.Name, m.OccHWM, m.OccCap)
			}
		}
	}
}

// runPhases runs phases once through sim.RunMultiKeyed, without a key
// (traced runs never resolve one).
func runPhases(cfg config.NPU, opts sim.Options, phases [][][]schedule.Op, shared bool) sim.MultiResult {
	return sim.RunMultiKeyed(cfg, opts, nil, shared, func() *schedule.Program { return sim.CompilePhases(phases) })
}

// TestMultiCoreTraceReconciles exercises the shared-SPM multi-core path:
// per-core tracks plus one scratchpad occupancy track, each reconciling.
func TestMultiCoreTraceReconciles(t *testing.T) {
	cfg := tinyCfg()
	cfg.Cores = 2
	p := core.LayerParams(tensor.Dims{M: 64, K: 48, N: 32}, 1, cfg)
	a := core.InterleaveDXMajor(p)
	sink := trace.New()
	mr := runPhases(cfg, sim.Options{Trace: sink, TraceLabel: "mc"}, [][][]schedule.Op{{a.Ops, a.Ops}}, true)
	if err := sink.Check(); err != nil {
		t.Fatal(err)
	}
	m := sink.Metrics()
	if m.Tracks != 3 { // core0, core1, shared spm
		t.Fatalf("tracks = %d, want 3", m.Tracks)
	}
	var perCore int64
	for _, r := range mr.PerCore {
		perCore += r.Cycles
	}
	if got := m.ComputeBusy + m.StallDMA + m.StallSpill; got != perCore {
		t.Fatalf("attribution %d != summed per-core makespans %d", got, perCore)
	}
	if m.OccHWM <= 0 || m.OccCap != cfg.TotalSPMBytes()/2 {
		t.Fatalf("shared SPM occupancy HWM %d / cap %d", m.OccHWM, m.OccCap)
	}
}

// TestSummarySinkMatchesFull runs single- and multi-core schedules into a
// full sink and a summary sink and requires the same Metrics, a passing
// Check, and no engine events in the summary sink's export.
func TestSummarySinkMatchesFull(t *testing.T) {
	cfg := tinyCfg()
	multi := cfg
	multi.Cores = 2
	p := core.LayerParams(tensor.Dims{M: 64, K: 48, N: 32}, 1, cfg)
	run := func(s *trace.Sink) {
		for _, sched := range []schedule.Schedule{core.InterleaveDXMajor(p), core.InterleaveDWMajor(p)} {
			sim.RunSchedules(cfg, sim.Options{Trace: s, TraceLabel: sched.Name}, sched)
		}
		a := core.InterleaveDXMajor(p)
		runPhases(multi, sim.Options{Trace: s, TraceLabel: "mc"}, [][][]schedule.Op{{a.Ops, a.Ops}}, true)
	}
	full, summary := trace.New(), trace.NewSummary()
	run(full)
	run(summary)
	if err := summary.Check(); err != nil {
		t.Fatal(err)
	}
	if got, want := summary.Metrics(), full.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("summary sink metrics diverged:\n got %+v\nwant %+v", got, want)
	}
	if got, want := summary.Metrics().Report(), full.Metrics().Report(); got != want {
		t.Fatalf("summary sink report diverged:\n got %s\nwant %s", got, want)
	}
	var buf bytes.Buffer
	if err := summary.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			t.Fatalf("summary sink exported a %q event", ev.Ph)
		}
	}
}

// TestFoldAppendRoundTrip folds a summary sink's tracks and appends them
// to fresh sinks: under the prefix they were folded with, the metrics and
// report must equal the original's; under another, only the track names
// move. Every sink must pass Check.
func TestFoldAppendRoundTrip(t *testing.T) {
	cfg := tinyCfg()
	multi := cfg
	multi.Cores = 2
	p := core.LayerParams(tensor.Dims{M: 64, K: 48, N: 32}, 1, cfg)
	src := trace.NewSummary()
	dx, dw := core.TunedBaselineKernels(cfg, p)
	sim.RunSchedules(cfg, sim.Options{Trace: src, TraceLabel: "L/baseline"}, dx, dw)
	sim.RunSchedules(cfg, sim.Options{Trace: src, TraceLabel: "L/dwmajor"}, core.InterleaveDWMajor(p))
	a := core.InterleaveDXMajor(p)
	runPhases(multi, sim.Options{Trace: src, TraceLabel: "L/mc"}, [][][]schedule.Op{{a.Ops, a.Ops}}, false)
	want := src.Metrics()
	if want.Tracks != 6 || want.FirstTouches == 0 {
		t.Fatalf("source sink: %d tracks, %d first touches", want.Tracks, want.FirstTouches)
	}

	recs := src.Fold("L")
	same := trace.NewSummary()
	same.Append("L", recs)
	if err := same.Check(); err != nil {
		t.Fatal(err)
	}
	if got := same.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("appended metrics diverged:\n got %+v\nwant %+v", got, want)
	}
	if got := same.Metrics().Report(); got != want.Report() {
		t.Fatalf("appended report diverged:\n got %s\nwant %s", got, want.Report())
	}

	moved := trace.NewSummary()
	moved.Append("M", recs)
	moved.Append("M", recs)
	got := moved.Metrics()
	if got.Tracks != 2*want.Tracks || got.Cycles != 2*want.Cycles || got.Reuse[0].Count() != 2*want.Reuse[0].Count() {
		t.Fatalf("twice-appended metrics: %+v", got)
	}
	if got.OccTrack != "M"+strings.TrimPrefix(want.OccTrack, "L") {
		t.Fatalf("occupancy track %q, folded from %q", got.OccTrack, want.OccTrack)
	}
	if err := moved.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestReuseByIDMatchesKeyed feeds one random access stream to a track by
// TileID and to a reference that keeps its last-touch map by TileKey, the
// way tracks once did: the per-class histograms and the first-touch count
// must agree exactly.
func TestReuseByIDMatchesKeyed(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	ids := map[schedule.TileKey]int32{}
	var pool []schedule.TileKey
	for i := 0; i < 300; i++ {
		k := schedule.TileKey{Class: dram.Class(rng.IntN(dram.NumClasses)), Tensor: uint16(rng.IntN(4)), Row: int32(rng.IntN(9)), Col: int32(rng.IntN(9))}
		if _, ok := ids[k]; !ok {
			ids[k] = int32(len(pool))
			pool = append(pool, k)
		}
	}
	sink := trace.NewSummary()
	tr := sink.NewTrack("ids")
	tr.Bind(len(pool))

	var want [dram.NumClasses]stats.Histogram
	var wantFirst int64
	last := map[schedule.TileKey]int64{}
	for idx := int64(0); idx < 20000; idx++ {
		// Mostly a hot working set, sometimes the whole pool, so distances
		// span short and long reuse.
		n := len(pool)
		if rng.IntN(4) != 0 {
			n = 16
		}
		k := pool[rng.IntN(n)]
		tr.Access(ids[k], k.Class)
		if prev, ok := last[k]; ok {
			want[k.Class].Add(idx - prev)
		} else {
			wantFirst++
		}
		last[k] = idx
	}
	tr.Release()
	m := sink.Metrics()
	if m.FirstTouches != wantFirst {
		t.Errorf("first touches = %d, want %d", m.FirstTouches, wantFirst)
	}
	for cl := range want {
		if m.Reuse[cl] != want[cl] {
			t.Errorf("class %v: reuse histogram diverged from the keyed reference", dram.Class(cl))
		}
	}
}

// TestTrackBindsOneProgram checks that a track refuses a second program:
// its tile IDs would name other tiles.
func TestTrackBindsOneProgram(t *testing.T) {
	tr := trace.NewSummary().NewTrack("once")
	tr.Bind(4)
	tr.Access(2, dram.ClassDY)
	tr.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Bind did not panic")
		}
	}()
	tr.Bind(4)
}

// TestMemoHitEmitted verifies that a layer simulation served from the memo
// cache records a memo-hit wall event instead of engine spans, here on the
// Section 5 scheme study's entry point.
func TestMemoHitEmitted(t *testing.T) {
	cfg := tinyCfg()
	core.ResetCaches()
	p := core.LayerParams(tensor.Dims{M: 48, K: 32, N: 48}, 7, cfg)
	sink := trace.New()
	opts := sim.Options{Trace: sink, TraceLabel: "memo-test"}
	core.RunPartitionedScheme(cfg, opts, p, core.IfmapSharing, 2) // cold: simulates, no hit
	if hits := sink.Metrics().MemoHits; hits != 0 {
		t.Fatalf("cold run recorded %d memo hits", hits)
	}
	core.RunPartitionedScheme(cfg, opts, p, core.IfmapSharing, 2) // warm: served
	if hits := sink.Metrics().MemoHits; hits != 1 {
		t.Fatalf("warm run recorded %d memo hits, want 1", hits)
	}
}

// TestParallelRunnerTrace drives traced simulations through the parallel
// runner the way the CLIs do (process-wide active sink, worker fan-out) and
// demands a complete, well-formed trace: runner task spans for every item,
// every engine track reconciled, and the JSON export parseable. Run under
// -race (make ci) this doubles as the concurrency-safety proof.
func TestParallelRunnerTrace(t *testing.T) {
	cfg := tinyCfg()
	sink := trace.New()
	prevSink := trace.SetActive(sink)
	defer trace.SetActive(prevSink)
	prevPar := runner.SetParallelism(8)
	defer runner.SetParallelism(prevPar)

	dims := make([]tensor.Dims, 24)
	for i := range dims {
		dims[i] = tensor.Dims{M: 32 + 8*(i%5), K: 32 + 8*(i%3), N: 32 + 8*(i%7)}
	}
	results := runner.Map(dims, func(d tensor.Dims) sim.Result {
		p := core.LayerParams(d, 1, cfg)
		return sim.RunSchedules(cfg,
			sim.Options{Trace: trace.Active(), TraceLabel: "par"},
			core.InterleaveDXMajor(p))
	})
	trace.SetActive(prevSink)

	if err := sink.Check(); err != nil {
		t.Fatal(err)
	}
	m := sink.Metrics()
	if m.Tasks != int64(len(dims)) {
		t.Fatalf("task spans = %d, want %d", m.Tasks, len(dims))
	}
	if m.Tracks != len(dims) {
		t.Fatalf("engine tracks = %d, want %d", m.Tracks, len(dims))
	}
	var want int64
	for _, r := range results {
		want += r.Cycles
	}
	if m.Cycles != want {
		t.Fatalf("trace cycles %d != summed results %d", m.Cycles, want)
	}

	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("exported trace is empty")
	}
	for _, ev := range doc.TraceEvents {
		if _, ok := ev["ph"].(string); !ok {
			t.Fatalf("event without phase: %v", ev)
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event without name: %v", ev)
		}
	}
}

// TestNilSinkExport confirms the disabled exporters still emit valid output.
func TestNilSinkExport(t *testing.T) {
	var s *trace.Sink
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if err := s.Export("", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Tracks != 0 || m.Cycles != 0 {
		t.Fatalf("nil sink metrics not zero: %+v", m)
	}
}

// TestReportRenders sanity-checks the text report against a traced run.
func TestReportRenders(t *testing.T) {
	cfg := tinyCfg()
	p := core.LayerParams(tensor.Dims{M: 64, K: 48, N: 32}, 1, cfg)
	sink := trace.New()
	sim.RunSchedules(cfg, sim.Options{Trace: sink, TraceLabel: "report"}, core.InterleaveDXMajor(p))
	rep := sink.Metrics().Report()
	for _, want := range []string{
		"=== trace report ===",
		"compute-busy",
		"dma-stall",
		"spill-stall",
		"SPM occupancy high-water",
		"reuse distance",
	} {
		if !bytes.Contains([]byte(rep), []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// BenchmarkDisabledTraceCalls measures the per-op cost of the nil-receiver
// fast path (should be a handful of predicted branches).
func BenchmarkDisabledTraceCalls(b *testing.B) {
	var tr *trace.Track
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.DMA(0, 3, 256, 0, 0, 1)
		tr.Compute("dx", 0, 5, 8, 8, 8)
		tr.Stall(2, 1)
		tr.Access(3, dram.ClassDY)
		tr.Occupancy(0, 512)
	}
}
