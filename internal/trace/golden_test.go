package trace_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden trace files")

// goldenCfg shrinks the scratchpad below the golden layer's working set so
// the recorded trace exercises every event kind: DMA and compute spans,
// occupancy samples, phase spans, and pressure-spill instants.
func goldenCfg() config.NPU {
	cfg := tinyCfg()
	cfg.Name = "golden"
	cfg.SPMBytes = 4 << 10
	return cfg
}

// TestGoldenTraceJSON locks the Chrome trace-event export byte-for-byte on
// a tiny layer under both access orders, and on a two-core, two-phase run
// in both scratchpad organisations (per-core tracks, per-buffer occupancy
// tracks, phase spans). Engine events live purely in the deterministic
// cycle domain, so the export must never drift unless the engine's timing
// model or the exporter changes — in which case regenerate with
// `go test ./internal/trace -run Golden -update` and review the diff.
func TestGoldenTraceJSON(t *testing.T) {
	cfg := goldenCfg()
	p := core.LayerParams(tensor.Dims{M: 32, K: 32, N: 32}, 1, cfg)
	for _, tc := range []struct {
		name  string
		build func(schedule.TileParams) schedule.Schedule
	}{
		{"dxmajor", core.InterleaveDXMajor},
		{"dwmajor", core.InterleaveDWMajor},
	} {
		sink := trace.New()
		res := sim.RunSchedules(cfg, sim.Options{Trace: sink, TraceLabel: "golden/" + tc.name}, tc.build(p))
		if res.Spills == 0 {
			t.Fatalf("%s: golden workload no longer spills — shrink goldenCfg's SPM so the trace keeps covering spill events", tc.name)
		}
		checkGolden(t, tc.name, sink)
	}

	mcfg := goldenMultiCfg()
	for _, shared := range []bool{true, false} {
		name := "multi_private"
		if shared {
			name = "multi_shared"
		}
		sink := trace.New()
		res := runPhases(mcfg, sim.Options{Trace: sink, TraceLabel: "golden/" + name}, goldenMultiPhases(), shared)
		if shared && res.SharedHits == 0 {
			t.Fatalf("%s: golden workload no longer hits across cores", name)
		}
		checkGolden(t, name, sink)
	}
}

// goldenMultiCfg is a two-core configuration whose scratchpad sits below
// goldenMultiPhases' working set, so the multi-core goldens record
// evictions alongside cross-core hits.
func goldenMultiCfg() config.NPU {
	cfg := tinyCfg()
	cfg.Name = "golden-multi"
	cfg.Cores = 2
	cfg.SPMBytes = 1 << 10
	return cfg
}

// goldenMultiPhases is a two-core, two-phase workload: a dX phase and a dW
// phase, the two cores walking the same dY tiles in different loop orders.
func goldenMultiPhases() [][][]schedule.Op {
	p := schedule.TileParams{
		Dims:      tensor.Dims{M: 16, K: 16, N: 16},
		Tiling:    schedule.Tiling{Tm: 4, Tk: 4, Tn: 4},
		ElemBytes: 4, Layer: 1,
	}
	return [][][]schedule.Op{
		{schedule.BaselineDX(p), schedule.BaselineDXOrdered(p, schedule.DXOrderKM)},
		{schedule.BaselineDW(p), schedule.BaselineDWOrdered(p, schedule.DWOrderNK)},
	}
}

// checkGolden reconciles sink and compares its export with
// testdata/trace_<name>.golden.json (or rewrites the file under -update).
func checkGolden(t *testing.T, name string, sink *trace.Sink) {
	t.Helper()
	if err := sink.Check(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	path := filepath.Join("testdata", "trace_"+name+".golden.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: missing golden file (regenerate with -update): %v", name, err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("%s: trace JSON drifted from %s (regenerate with -update and review)", name, path)
	}
}
