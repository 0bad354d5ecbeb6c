package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type testKey struct {
	A int
	B string
}

func TestCacheBasics(t *testing.T) {
	c := NewCache[testKey, int]("test/basics")
	k := testKey{A: 1, B: "x"}

	computed := 0
	compute := func() int { computed++; return 42 }
	if v := c.GetOrCompute(k, compute); v != 42 || computed != 1 {
		t.Fatalf("empty cache: GetOrCompute = %d after %d computes", v, computed)
	}
	if v := c.GetOrCompute(k, compute); v != 42 || computed != 1 {
		t.Fatalf("GetOrCompute = %d after %d computes, want a hit", v, computed)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d", got)
	}

	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %g", s.HitRate())
	}

	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset left entries behind")
	}
	if s := c.Stats(); s.Lookups() != 0 {
		t.Fatalf("Reset left counters: %+v", s)
	}
}

func TestCacheGetOrCompute(t *testing.T) {
	c := NewCache[int, string]("test/compute")
	calls := 0
	for i := 0; i < 3; i++ {
		got := c.GetOrCompute(7, func() string {
			calls++
			return "seven"
		})
		if got != "seven" {
			t.Fatalf("got %q", got)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines across a key
// space wide enough to touch every shard; run with -race.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache[int, int]("test/concurrent")
	const goroutines = 16
	const keys = 512
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				v := c.GetOrCompute(k, func() int { return k * 3 })
				if v != k*3 {
					t.Errorf("key %d: got %d", k, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Len(); got != keys {
		t.Fatalf("Len = %d, want %d", got, keys)
	}
	// Every one of goroutines*keys lookups is accounted for.
	if s := c.Stats(); s.Lookups() != goroutines*keys {
		t.Fatalf("lookups = %d, want %d", s.Lookups(), goroutines*keys)
	}
}

func TestCacheSpreadsAcrossShards(t *testing.T) {
	c := NewCache[int, int]("test/shards")
	for k := 0; k < 4096; k++ {
		c.GetOrCompute(k, func() int { return k })
	}
	used := 0
	for i := range c.shards {
		if len(c.shards[i].m) > 0 {
			used++
		}
	}
	// With 4096 uniformly hashed keys the odds of an idle shard are nil;
	// an imbalance here means the shard function is broken.
	if used < cacheShards/2 {
		t.Fatalf("only %d/%d shards used", used, cacheShards)
	}
}

// TestCacheGetOrComputeConverges races many workers on one cold key: the
// compute holds until every other worker has joined its flight (or a
// second passes, as without single flight none ever joins), must run
// once, and every worker must get back the one value it stored.
func TestCacheGetOrComputeConverges(t *testing.T) {
	c := NewCache[int, *int]("test/converge")
	const goroutines = 16
	var computes atomic.Int64
	compute := func() *int {
		computes.Add(1)
		deadline := time.Now().Add(time.Second)
		for c.Stats().Coalesced < goroutines-1 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		return new(int)
	}
	got := make([]*int, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			got[g] = c.GetOrCompute(1, compute)
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for %d concurrent callers, want 1", n, goroutines)
	}
	if s := c.Stats(); s.Misses != 1 || s.Coalesced != goroutines-1 {
		t.Errorf("stats = %+v, want 1 miss + %d coalesced", s, goroutines-1)
	}
	stored := c.GetOrCompute(1, func() *int { t.Fatal("a resident key recomputed"); return nil })
	for g, p := range got {
		if p != stored {
			t.Fatalf("worker %d got %p, resident value is %p", g, p, stored)
		}
	}
}

// TestCachePanickingLeaderReleasesWaiters has a leader's compute panic
// once its waiters have joined: the waiters must be released, retry, and
// compute the value themselves, and the key must stay usable.
func TestCachePanickingLeaderReleasesWaiters(t *testing.T) {
	c := NewCache[int, int]("test/panic")
	const waiters = 4
	leading := make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.GetOrCompute(1, func() int {
			close(leading)
			for c.Stats().Coalesced < waiters {
				runtime.Gosched()
			}
			panic("leader failed")
		})
	}()
	<-leading
	var wg sync.WaitGroup
	got := make([]int, waiters)
	for w := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = c.GetOrCompute(1, func() int { return 7 })
		}()
	}
	if r := <-leaderDone; r != "leader failed" {
		t.Fatalf("leader recovered %v, want its panic", r)
	}
	wg.Wait()
	for w, v := range got {
		if v != 7 {
			t.Errorf("waiter %d got %d, want 7", w, v)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after the retry, want 1", c.Len())
	}
}
