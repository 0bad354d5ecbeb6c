package stats

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// CacheCounters accumulates hit/miss counts for one named cache. The
// counters are lock-free so hot simulation paths can bump them from many
// goroutines; construct with NewCacheCounters to register the cache in the
// process-wide report.
//
//lint:registered
type CacheCounters struct {
	name      string
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	coalesced atomic.Int64
	// sizer, when set, reports the cache's current entry count. Guarded by
	// sizerMu: SetSizer races with Snapshot only at registration time, but
	// the race detector is right that it is a race.
	sizerMu sync.Mutex
	sizer   func() int
}

// SetSizer installs a callback reporting the cache's current entry count,
// surfaced as Entries in snapshots. Raw hit/miss splits are not
// deterministic under concurrent miss races (two workers may both miss and
// compute the same key), but the entry count — the set of distinct keys ever
// requested — is, which is what lets run manifests derive a
// parallelism-independent hit rate: (lookups − entries) / lookups.
func (c *CacheCounters) SetSizer(fn func() int) {
	c.sizerMu.Lock()
	c.sizer = fn
	c.sizerMu.Unlock()
}

// Hit records one cache hit.
func (c *CacheCounters) Hit() { c.hits.Add(1) }

// Miss records one cache miss.
func (c *CacheCounters) Miss() { c.misses.Add(1) }

// Eviction records one entry evicted by a bounded cache's replacement
// policy. Unbounded memo caches never call it.
func (c *CacheCounters) Eviction() { c.evictions.Add(1) }

// Coalesced records one lookup that neither hit nor missed: it joined an
// in-flight computation of the same key (singleflight deduplication) and
// waited for that result instead of computing its own.
func (c *CacheCounters) Coalesced() { c.coalesced.Add(1) }

// Reset zeroes the counters.
func (c *CacheCounters) Reset() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.coalesced.Store(0)
}

// Snapshot returns the current counter values.
func (c *CacheCounters) Snapshot() CacheSnapshot {
	s := CacheSnapshot{
		Name: c.name, Hits: c.hits.Load(), Misses: c.misses.Load(),
		Evictions: c.evictions.Load(), Coalesced: c.coalesced.Load(),
		Entries: -1,
	}
	c.sizerMu.Lock()
	sizer := c.sizer
	c.sizerMu.Unlock()
	if sizer != nil {
		s.Entries = int64(sizer())
	}
	return s
}

// CacheSnapshot is one cache's counters at a point in time. Entries is the
// current entry count, or -1 when the cache installed no sizer.
type CacheSnapshot struct {
	Name      string
	Hits      int64
	Misses    int64
	Evictions int64
	Coalesced int64
	Entries   int64
}

// Lookups returns the total number of lookups, including coalesced ones.
func (s CacheSnapshot) Lookups() int64 { return s.Hits + s.Misses + s.Coalesced }

// HitRate returns the fraction of lookups that hit (0 with no lookups).
func (s CacheSnapshot) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

func (s CacheSnapshot) String() string {
	return fmt.Sprintf("%s: %d hits / %d lookups (%.1f%% hit rate)",
		s.Name, s.Hits, s.Lookups(), 100*s.HitRate())
}

// PhaseCounters splits a two-phase evaluator's executions into expensive
// resolutions and cheap replays. Wall domain like raw hit/miss splits: under
// a miss race two workers may both look the same key up, so the executed
// counts vary legitimately with -j (the deterministic view is the owning
// cache's distinct-key census). Construct with NewPhaseCounters.
//
//lint:registered
type PhaseCounters struct {
	name        string
	resolutions atomic.Int64
	replays     atomic.Int64
}

// Resolution records one full (expensive) resolution phase executed.
func (p *PhaseCounters) Resolution() { p.resolutions.Add(1) }

// Replay records one cheap replay executed from a resolved artifact.
func (p *PhaseCounters) Replay() { p.replays.Add(1) }

// Reset zeroes both counters.
func (p *PhaseCounters) Reset() {
	p.resolutions.Store(0)
	p.replays.Store(0)
}

// Snapshot returns the current phase split.
func (p *PhaseCounters) Snapshot() PhaseSnapshot {
	return PhaseSnapshot{
		Name:        p.name,
		Resolutions: p.resolutions.Load(),
		Replays:     p.replays.Load(),
	}
}

// PhaseSnapshot is one evaluator's phase split at a point in time.
type PhaseSnapshot struct {
	Name        string
	Resolutions int64
	Replays     int64
}

// ReuseRatio returns replays per resolution (0 with no resolutions): how
// many cheap passes each expensive pass amortized over.
func (s PhaseSnapshot) ReuseRatio() float64 {
	if s.Resolutions > 0 {
		return float64(s.Replays) / float64(s.Resolutions)
	}
	return 0
}

// NewPhaseCounters creates phase counters under the given name.
func NewPhaseCounters(name string) *PhaseCounters {
	return &PhaseCounters{name: name}
}

// cacheRegistry tracks every registered cache for CacheReport.
var cacheRegistry struct {
	mu   sync.Mutex
	list []*CacheCounters
}

// NewCacheCounters creates counters registered under the given name; the
// cache then shows up in CacheReport.
func NewCacheCounters(name string) *CacheCounters {
	c := &CacheCounters{name: name}
	cacheRegistry.mu.Lock()
	cacheRegistry.list = append(cacheRegistry.list, c)
	cacheRegistry.mu.Unlock()
	return c
}

// ResetAllCacheCounters zeroes every registered cache's hit/miss counters,
// so hit-rate reports from back-to-back runs don't mix. The cached entries
// themselves are untouched — only the counters reset.
func ResetAllCacheCounters() {
	cacheRegistry.mu.Lock()
	defer cacheRegistry.mu.Unlock()
	for _, c := range cacheRegistry.list {
		c.Reset()
	}
}

// CacheReport returns a snapshot of every registered cache, sorted by name.
func CacheReport() []CacheSnapshot {
	cacheRegistry.mu.Lock()
	defer cacheRegistry.mu.Unlock()
	out := make([]CacheSnapshot, 0, len(cacheRegistry.list))
	for _, c := range cacheRegistry.list {
		out = append(out, c.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
