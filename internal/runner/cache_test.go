package runner

import (
	"sync"
	"testing"
)

type testKey struct {
	A int
	B string
}

func TestCacheBasics(t *testing.T) {
	c := NewCache[testKey, int]("test/basics")
	k := testKey{A: 1, B: "x"}

	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(k, 42)
	if v, ok := c.Get(k); !ok || v != 42 {
		t.Fatalf("Get = %d, %v", v, ok)
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
		c.Put(k, k)
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

// TestCacheGetOrComputeConverges races many workers on one cold key, each
// computing its own value: every caller must get back the single value
// that was stored first.
func TestCacheGetOrComputeConverges(t *testing.T) {
	c := NewCache[int, *int]("test/converge")
	const goroutines = 16
	got := make([]*int, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			got[g] = c.GetOrCompute(1, func() *int { return new(int) })
		}()
	}
	wg.Wait()
	stored, _ := c.Get(1)
	for g, p := range got {
		if p != stored {
			t.Fatalf("worker %d got %p, resident value is %p", g, p, stored)
		}
	}
}
