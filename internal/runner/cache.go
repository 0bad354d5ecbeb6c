package runner

import (
	"hash/maphash"
	"sync"

	"igosim/internal/stats"
)

// cacheShards is the shard count of Cache. Sharding keeps lock contention
// negligible when every worker of the pool consults the cache at once; 64
// comfortably covers the pool widths the runner produces.
const cacheShards = 64

// Cache is a sharded, concurrency-safe, unbounded memoization cache for
// pure functions. A hit takes its shard's read lock and reads a map; a
// miss takes the write lock, under which every key of the shard is
// resident, in flight, or neither, and joins the key's flight or leads a
// new one. Hit, miss and coalesced counts are published through the stats
// cache report.
type Cache[K comparable, V any] struct {
	seed     maphash.Seed
	counters *stats.CacheCounters
	shards   [cacheShards]cacheShard[K, V]
}

type cacheShard[K comparable, V any] struct {
	mu      sync.RWMutex
	m       map[K]V
	flights map[K][]chan V // keys in flight: each waiter's delivery
}

// NewCache creates a cache registered in the stats cache report under name.
//
//lint:walldomain the per-process hash seed only shards keys; cached values are key-determined
func NewCache[K comparable, V any](name string) *Cache[K, V] {
	c := &Cache[K, V]{
		seed:     maphash.MakeSeed(),
		counters: stats.NewCacheCounters(name),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[K]V)
		c.shards[i].flights = make(map[K][]chan V)
	}
	// The entry count is the deterministic half of the cache's statistics
	// (distinct keys ever requested); manifests derive their
	// parallelism-independent hit rate from it.
	c.counters.SetSizer(c.Len)
	return c
}

func (c *Cache[K, V]) shard(k K) *cacheShard[K, V] {
	return &c.shards[maphash.Comparable(c.seed, k)%cacheShards]
}

// GetOrCompute returns the cached value for k, computing and storing it on
// a miss. Callers that miss k while another computes it wait for that
// value, lending their worker slot for the wait (Await), so compute runs
// once per key and every caller sees one value per key at any
// parallelism. compute must not wait on a lookup of k, or the flight waits
// on itself. If compute panics, its waiters retry.
func (c *Cache[K, V]) GetOrCompute(k K, compute func() V) V {
	s := c.shard(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		c.counters.Hit()
		return v
	}
	s.mu.Lock()
	if v, ok := s.m[k]; ok { // stored since the read lock was released
		s.mu.Unlock()
		c.counters.Hit()
		return v
	}
	if waiters, ok := s.flights[k]; ok {
		ch := make(chan V, 1)
		s.flights[k] = append(waiters, ch)
		s.mu.Unlock()
		c.counters.Coalesced()
		if v, ok := Await(ch); ok {
			return v
		}
		return c.GetOrCompute(k, compute) // the leader panicked
	}
	s.flights[k] = nil
	s.mu.Unlock()
	c.counters.Miss()
	done := false
	defer func() {
		s.mu.Lock()
		if done {
			s.m[k] = v
		}
		waiters := s.flights[k]
		delete(s.flights, k)
		s.mu.Unlock()
		for _, ch := range waiters {
			if done {
				ch <- v
			}
			close(ch)
		}
	}()
	v = compute()
	done = true
	return v
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Reset drops every entry and zeroes the counters (used by tests and
// benchmarks that need a cold cache). Flights in progress are left to
// finish; their values land in the now-empty cache.
func (c *Cache[K, V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[K]V)
		s.mu.Unlock()
	}
	c.counters.Reset()
}

// Stats returns the cache's current hit/miss snapshot.
func (c *Cache[K, V]) Stats() stats.CacheSnapshot { return c.counters.Snapshot() }
