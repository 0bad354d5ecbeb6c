package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"igosim/internal/core"
	"igosim/internal/runner"
	"igosim/internal/sim"
	"igosim/internal/stats"
)

// fakeCompute builds a compute function returning a fixed body while
// counting executions.
func fakeCompute(counter *int, mu *sync.Mutex, body string) func() ([]byte, *Error) {
	return func() ([]byte, *Error) {
		mu.Lock()
		*counter++
		mu.Unlock()
		return []byte(body), nil
	}
}

// TestCacheLRUBound churns a capacity-4 cache with recurring keys and
// checks the bound holds, the doorkeeper admits recurring keys, and
// evictions are counted.
func TestCacheLRUBound(t *testing.T) {
	counters := stats.NewCacheCounters("serve/test-lru")
	c := newResultCache(4, counters, runner.NewLimiter(1))
	ctx := context.Background()
	var mu sync.Mutex
	computes := 0

	get := func(key string) string {
		body, status, err := c.Get(ctx, key, fakeCompute(&computes, &mu, "body-"+key))
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if string(body) != "body-"+key {
			t.Fatalf("Get(%s) = %q", key, body)
		}
		return status
	}

	// Fill to capacity: all admitted.
	for i := 0; i < 4; i++ {
		if s := get(fmt.Sprintf("k%d", i)); s != StatusMiss {
			t.Errorf("first Get(k%d) = %s, want miss", i, s)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d after filling capacity 4", c.Len())
	}
	for i := 0; i < 4; i++ {
		if s := get(fmt.Sprintf("k%d", i)); s != StatusHit {
			t.Errorf("second Get(k%d) = %s, want hit", i, s)
		}
	}

	// A one-shot scan over 32 fresh keys must not displace the working
	// set: each scan key is seen once, computed, and refused admission.
	for i := 0; i < 32; i++ {
		get(fmt.Sprintf("scan%d", i))
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d after scan, want 4 (doorkeeper should refuse one-shot keys)", c.Len())
	}
	if ev := counters.Snapshot().Evictions; ev != 0 {
		t.Errorf("%d evictions during a one-shot scan, want 0", ev)
	}
	for i := 0; i < 4; i++ {
		if s := get(fmt.Sprintf("k%d", i)); s != StatusHit {
			t.Errorf("Get(k%d) after scan = %s, want hit: scan displaced the working set", i, s)
		}
	}

	// A *recurring* key earns admission on its second computation,
	// evicting the LRU tail (k0: everything else was touched later).
	get("hot")
	if s := get("hot"); s != StatusMiss {
		t.Fatalf("recurring key's second Get = %s, want miss (first was refused admission)", s)
	}
	if s := get("hot"); s != StatusHit {
		t.Errorf("recurring key's third Get = %s, want hit (admitted on recurrence)", s)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d after admission-by-recurrence, want 4", c.Len())
	}
	if ev := counters.Snapshot().Evictions; ev != 1 {
		t.Errorf("evictions = %d after admission-by-recurrence, want 1", ev)
	}
	if s := get("k0"); s != StatusMiss {
		t.Errorf("Get(k0) = %s, want miss: k0 was the LRU tail and should have been evicted", s)
	}
}

// TestCacheSingleflight proves N concurrent identical requests collapse to
// one computation, counted as 1 miss + N-1 coalesced lookups.
func TestCacheSingleflight(t *testing.T) {
	counters := stats.NewCacheCounters("serve/test-sf")
	c := newResultCache(8, counters, runner.NewLimiter(4))
	var mu sync.Mutex
	computes := 0
	release := make(chan struct{})
	compute := func() ([]byte, *Error) {
		mu.Lock()
		computes++
		mu.Unlock()
		<-release // hold every caller in flight until all have joined
		return []byte("v"), nil
	}

	const n = 16
	var wg sync.WaitGroup
	joined := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			joined <- struct{}{}
			body, _, err := c.Get(context.Background(), "same", compute)
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			if string(body) != "v" {
				t.Errorf("Get = %q", body)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-joined
	}
	// All n goroutines are at least launched; wait until n-1 have
	// registered as waiters so exactly one leader holds the computation.
	for {
		if counters.Snapshot().Coalesced == n-1 {
			break
		}
	}
	close(release)
	wg.Wait()

	if computes != 1 {
		t.Errorf("%d computations for %d concurrent identical requests, want 1", computes, n)
	}
	snap := counters.Snapshot()
	if snap.Misses != 1 || snap.Coalesced != n-1 {
		t.Errorf("counters: %d misses + %d coalesced, want 1 + %d", snap.Misses, snap.Coalesced, n-1)
	}
	if snap.Lookups() != n {
		t.Errorf("lookups = %d, want %d", snap.Lookups(), n)
	}
}

// TestServerSingleflight repeats the collapse proof end-to-end: 16
// concurrent identical HTTP requests against a live server must execute
// one simulation, visible in the serve/result counters.
func TestServerSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates one model point")
	}
	serveCounters.Reset()
	_, ts := newTestServer(t, Options{})
	req := Request{Workload: "ncf", Suite: "edge", NPU: "small", Batch: 2}

	const n = 16
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, _ := post(t, ts.Client(), ts.URL+"/simulate", req)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("concurrent identical requests returned different bodies")
		}
	}
	snap := serveCounters.Snapshot()
	if snap.Misses != 1 {
		t.Errorf("misses = %d for %d identical concurrent requests, want 1 (singleflight)", snap.Misses, n)
	}
	if snap.Lookups() != n {
		t.Errorf("lookups = %d, want %d", snap.Lookups(), n)
	}
}

// TestResetCachesClearsServerState proves ResetCaches returns the whole
// process to cold: the result cache empties (the same request misses
// again) and the simulator-side caches are dropped too.
func TestResetCachesClearsServerState(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates one model point")
	}
	s, ts := newTestServer(t, Options{})
	req := Request{Workload: "dlrm", Suite: "edge", NPU: "small", Batch: 2}

	_, first, st1 := post(t, ts.Client(), ts.URL+"/simulate", req)
	if st1 != StatusMiss {
		t.Fatalf("first request: cache %s, want miss", st1)
	}
	_, _, st2 := post(t, ts.Client(), ts.URL+"/simulate", req)
	if st2 != StatusHit {
		t.Fatalf("second request: cache %s, want hit", st2)
	}
	if core.LayerMemoStats().Entries <= 0 {
		t.Fatal("layer memo stayed empty after a simulation")
	}

	s.ResetCaches()
	if s.cache.Len() != 0 {
		t.Errorf("result cache holds %d entries after ResetCaches", s.cache.Len())
	}
	if n := core.LayerMemoStats().Entries; n != 0 {
		t.Errorf("layer memo holds %d entries after ResetCaches", n)
	}
	if n := sim.ResolvedCacheStats().Entries; n != 0 {
		t.Errorf("residency census holds %d traces after ResetCaches", n)
	}
	if n := sim.ResolvedCacheBytes(); n != 0 {
		t.Errorf("residency cache pins %d bytes after ResetCaches", n)
	}

	_, again, st3 := post(t, ts.Client(), ts.URL+"/simulate", req)
	if st3 != StatusMiss {
		t.Errorf("request after ResetCaches: cache %s, want miss (cold state)", st3)
	}
	if !bytes.Equal(first, again) {
		t.Error("cold recomputation after ResetCaches produced a different body")
	}
}

// TestResetEndpoint checks the opt-in /reset route.
func TestResetEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{EnableReset: true})
	c := s.cache
	c.Get(context.Background(), "x", func() ([]byte, *Error) { return []byte("v"), nil })
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	resp, err := ts.Client().Post(ts.URL+"/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reset: %d", resp.StatusCode)
	}
	if c.Len() != 0 {
		t.Errorf("result cache holds %d entries after POST /reset", c.Len())
	}

	// Without EnableReset the route must not exist.
	_, ts2 := newTestServer(t, Options{})
	resp, err = ts2.Client().Post(ts2.URL+"/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /reset without EnableReset: %d, want 404", resp.StatusCode)
	}
}

// TestServersRegisterOneResultCache builds several servers in one process
// and checks the stats cache report still lists exactly the process's
// twelve caches, serve/result once: the benchmark's per-layer probes and
// the run manifests key on these names. Counters the unit tests above
// register for their private caches (serve/test-*) are left out.
func TestServersRegisterOneResultCache(t *testing.T) {
	for i := 0; i < 3; i++ {
		New(Options{CacheCap: 4 + i})
	}
	want := []string{
		"core/baseline-panel", "core/baseline-tune", "core/compiled-prog",
		"core/interleave-tune", "core/layer-sim", "core/major-panel",
		"core/merge-panel", "core/order-tune", "core/partitioned-prog",
		"core/summary-trace", "serve/result", "sim/resolved",
	}
	var got []string
	for _, snap := range stats.CacheReport() {
		if !strings.HasPrefix(snap.Name, "serve/test-") {
			got = append(got, snap.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cache report names after building 3 servers:\n got %q\nwant %q", got, want)
	}
}
