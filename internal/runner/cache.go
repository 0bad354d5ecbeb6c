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

// Cache is a sharded, concurrency-safe memoization cache. It is built for
// pure functions: GetOrCompute may invoke the compute function more than
// once for the same key under a miss race, which is harmless (the callers
// converge on one stored value) and keeps the fast path free of per-key
// locking. Hit/miss counts are published through the stats cache report.
type Cache[K comparable, V any] struct {
	seed     maphash.Seed
	counters *stats.CacheCounters
	shards   [cacheShards]cacheShard[K, V]
}

type cacheShard[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
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

// Get returns the cached value for k, counting the lookup.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shard(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		c.counters.Hit()
	} else {
		c.counters.Miss()
	}
	return v, ok
}

// Put stores v under k.
func (c *Cache[K, V]) Put(k K, v V) {
	s := c.shard(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// GetOrCompute returns the cached value for k, computing and storing it on
// a miss. compute runs outside the shard lock, so under a miss race both
// workers compute; the first to store wins and the loser adopts its value.
// Every caller therefore sees one canonical value per key at any
// parallelism, even when the value holds pointers whose identity differs
// between the racing computations.
func (c *Cache[K, V]) GetOrCompute(k K, compute func() V) V {
	if v, ok := c.Get(k); ok {
		return v
	}
	return c.putIfAbsent(k, compute())
}

// putIfAbsent stores v under k only if no value is resident, and returns
// the resident value either way.
func (c *Cache[K, V]) putIfAbsent(k K, v V) V {
	s := c.shard(k)
	s.mu.Lock()
	if cur, ok := s.m[k]; ok {
		s.mu.Unlock()
		return cur
	}
	s.m[k] = v
	s.mu.Unlock()
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

// Reset drops every entry and zeroes the hit/miss counters (used by tests
// and benchmarks that need a cold cache).
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
