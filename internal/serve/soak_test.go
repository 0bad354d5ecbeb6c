package serve

import (
	"net/http"
	"runtime"
	"testing"

	"igosim/internal/config"
	"igosim/internal/sim"
)

// TestSoakDistinctConfigsStayBounded sends a long stream of distinct
// inline configurations through one server and checks that memory tracks
// the budgets, not the traffic history: after every request the resident
// residency traces fit the trace cache's byte budget (shrunk here so the
// stream overflows it many times over), and after the stream the live heap
// stays under soakHeapBound.
func TestSoakDistinctConfigsStayBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a few hundred distinct configurations")
	}
	const (
		requests      = 320
		budget        = 2 << 20
		soakHeapBound = 24 << 20
	)
	_, ts := newTestServer(t, Options{})
	prev := sim.SetResidencyCacheBytes(budget)
	defer sim.SetResidencyCacheBytes(prev)

	base := config.SmallNPU()
	for i := 0; i < requests; i++ {
		// Array width, SPM size and bandwidth all vary, so most requests
		// tile their layers differently and resolve new traces.
		cfg := base
		cfg.ArrayRows = 16 + 8*(i%5)
		cfg.ArrayCols = cfg.ArrayRows
		cfg.SPMBytes = int64(256+64*(i/5%8)) << 10
		cfg.DRAMBandwidth = float64(8+4*(i/40)) * 1e9
		req := Request{Workload: "ncf", Suite: "edge", Config: &cfg, Policy: "partition"}
		code, body, _ := post(t, ts.Client(), ts.URL+"/simulate", req)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		if got := sim.ResolvedCacheBytes(); got > budget {
			t.Fatalf("request %d: resident traces pin %d bytes, over the %d-byte budget", i, got, budget)
		}
	}
	if ev := sim.ResolvedCacheStats().Evictions; ev == 0 {
		t.Fatal("the stream never filled the trace cache: the budget check proved nothing")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("live heap after %d distinct configurations: %.1f MiB", requests, float64(ms.HeapAlloc)/(1<<20))
	if ms.HeapAlloc > soakHeapBound {
		t.Errorf("live heap %d bytes after %d distinct configurations, over the %d-byte bound", ms.HeapAlloc, requests, soakHeapBound)
	}
}
