package runner

import (
	"sync"

	"igosim/internal/stats"
)

// Census is a distinct-key census for a cache that evicts or keeps
// nothing: every key ever looked up since the last reset, counted at its
// first lookup. Unlike a hit/miss split or a bounded cache's resident set,
// the census does not depend on worker interleaving, so manifests and
// exact-gated benchmark counts read it as the cache's Entries. A key may
// count for several entries (a family of traces under one key).
type Census[K comparable] struct {
	counters *stats.CacheCounters
	mu       sync.Mutex
	keys     map[K]struct{}
	n        int
}

// NewCensus creates a census installed as counters' sizer.
func NewCensus[K comparable](counters *stats.CacheCounters) *Census[K] {
	c := &Census[K]{counters: counters, keys: make(map[K]struct{})}
	counters.SetSizer(c.Len)
	return c
}

// Add records k as seen, counting n entries the first time, and reports
// whether k was new.
func (c *Census[K]) Add(k K, n int) bool {
	c.mu.Lock()
	_, seen := c.keys[k]
	if !seen {
		c.keys[k] = struct{}{}
		c.n += n
	}
	c.mu.Unlock()
	return !seen
}

// Lookup records one lookup of k on the counters: a miss the first time k
// is seen, a hit afterwards. It is the census-only cache's whole lookup,
// for callers whose values live elsewhere.
func (c *Census[K]) Lookup(k K) {
	if c.Add(k, 1) {
		c.counters.Miss()
	} else {
		c.counters.Hit()
	}
}

// Len returns the number of entries counted.
func (c *Census[K]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Reset forgets every key. The counters are left alone.
func (c *Census[K]) Reset() {
	c.mu.Lock()
	c.keys = make(map[K]struct{})
	c.n = 0
	c.mu.Unlock()
}
