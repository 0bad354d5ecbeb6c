package runner

import (
	"sync"

	"igosim/internal/stats"
)

// Bounded is a capacity-bounded LRU cache with a doorkeeper admission
// policy and single-flight lookups, for values too large or too numerous
// to memoize unboundedly (resolved residency traces run to megabytes on
// big programs; a serving process sees an open-ended stream of distinct
// requests). It trades the sharding of Cache for strict LRU: one mutex
// orders the LRU list, the doorkeeper and the flights, and the values are
// expensive enough to produce that the lock is never the bottleneck.
//
// Under that mutex every key is resident, in flight, or neither. Lookup
// hits a resident key, joins a key in flight, or makes the caller the
// leader of a new flight; the leader's Finish offers its value for
// admission, removes the flight and delivers the value to its waiters,
// admitted or not. Reset and SetCap drop resident entries, never flights.
//
// Capacity is counted in weight units. NewBounded weighs every entry 1,
// so capacity is an entry count; NewWeighted takes a weight function, so
// capacity can be a byte budget over values of very different sizes.
//
// Admission: while the new entry fits below capacity it is admitted
// immediately (a cold sweep must not pay a double-compute tax). Once it
// does not, the first offer of a key is refused and the key is
// remembered in the doorkeeper, a FIFO set of at most doorkeeperFactor ×
// resident-entry-count keys; an offer of a remembered key is admitted,
// evicting LRU entries until it fits, and leaves the doorkeeper (so once
// evicted it must miss twice again). A one-shot scan over many distinct
// keys therefore cannot flush the working set: each scan key is refused
// once and forgotten FIFO, and only keys that recur earn a slot (the
// TinyLFU doorkeeper, simplified to a set). An entry heavier than the
// whole capacity is never admitted.
//
// The cache keeps no census of the keys it has seen beyond the doorkeeper:
// every piece of per-key state is bounded by capacity or by the flights
// in progress. The caller owns the counters and picks what they report as
// Entries — Len, or an exact distinct-key census it keeps itself.
type Bounded[K comparable, V any] struct {
	mu       sync.Mutex
	cap      int
	used     int         // total weight of the resident entries
	weigh    func(V) int // nil: every entry weighs 1
	m        map[K]*boundedEntry[K, V]
	head     *boundedEntry[K, V] // most recently used
	tail     *boundedEntry[K, V] // least recently used
	door     map[K]int           // doorkeeper: refused key -> its slot in doorQ
	doorQ    []K                 // ring of remembered keys; stale once admitted
	doorNext int                 // doorQ's oldest slot once the ring is full
	flights  map[K][]chan V      // keys in flight: the leader's and each waiter's delivery
	counters *stats.CacheCounters
}

type boundedEntry[K comparable, V any] struct {
	key        K
	val        V
	w          int
	prev, next *boundedEntry[K, V]
}

// doorkeeperFactor bounds the doorkeeper to doorkeeperFactor × the
// resident entry count (at least one); beyond that the oldest remembered
// keys are forgotten FIFO. With unit weights a full cache holds capacity
// entries, so the bound is doorkeeperFactor × capacity.
const doorkeeperFactor = 8

// NewBounded creates a bounded cache holding at most capacity entries,
// counting its hits, misses and evictions on the caller's registered
// counters. Capacity 0 disables the cache: every lookup that is not
// coalesced misses, and Finish admits nothing.
func NewBounded[K comparable, V any](capacity int, counters *stats.CacheCounters) *Bounded[K, V] {
	return NewWeighted[K, V](capacity, nil, counters)
}

// NewWeighted creates a bounded cache whose resident entries' weights,
// as weigh reports them, sum to at most capacity. weigh must be a pure
// function of the value; nil weighs every entry 1.
func NewWeighted[K comparable, V any](capacity int, weigh func(V) int, counters *stats.CacheCounters) *Bounded[K, V] {
	return &Bounded[K, V]{
		cap:      capacity,
		weigh:    weigh,
		m:        make(map[K]*boundedEntry[K, V]),
		door:     make(map[K]int),
		flights:  make(map[K][]chan V),
		counters: counters,
	}
}

// SetCap changes the capacity. Shrinking evicts LRU entries down to the
// new bound; capacity 0 drops every resident entry and disables the cache.
// The doorkeeper starts over empty; flights in progress are left alone.
func (b *Bounded[K, V]) SetCap(capacity int) {
	b.mu.Lock()
	b.cap = capacity
	for b.used > b.cap {
		b.evictLocked()
	}
	b.forgetLocked()
	b.mu.Unlock()
}

// Cap returns the current capacity.
func (b *Bounded[K, V]) Cap() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cap
}

// Lookup looks k up and counts the lookup. A hit returns k's resident
// value and a nil wait. Otherwise wait delivers the value k's flight
// finishes with: the lookup joined a flight in progress (coalesced), or
// it missed and leads a new one (lead), and must compute the value and
// call Finish exactly once, deferred if it may panic, or its waiters block
// forever. A leader that ends without a value finishes with the zero
// value, which tells its waiters to compute for themselves. A waiter that
// runs on the worker budget receives through Await, which lends its slot
// while it blocks.
func (b *Bounded[K, V]) Lookup(k K) (v V, wait <-chan V, lead bool) {
	b.mu.Lock()
	if e, ok := b.m[k]; ok {
		b.moveFrontLocked(e)
		v = e.val
		b.mu.Unlock()
		b.counters.Hit()
		return v, nil, false
	}
	ch := make(chan V, 1)
	waiters, inFlight := b.flights[k]
	b.flights[k] = append(waiters, ch)
	b.mu.Unlock()
	if inFlight {
		b.counters.Coalesced()
	} else {
		b.counters.Miss()
	}
	return v, ch, !inFlight
}

// Finish ends the flight the caller leads on k, delivering v to the
// leader and every waiter. If admit is set it first offers v for
// admission under the policy above and reports whether v was admitted.
func (b *Bounded[K, V]) Finish(k K, v V, admit bool) (admitted bool) {
	w := 1
	if admit && b.weigh != nil { // set once at construction; weigh runs unlocked
		w = b.weigh(v)
	}
	b.mu.Lock()
	if admit {
		admitted = b.admitLocked(k, v, w)
	}
	waiters := b.flights[k]
	delete(b.flights, k)
	b.mu.Unlock()
	for _, ch := range waiters {
		ch <- v // buffered: a waiter that gave up never blocks the leader
	}
	return admitted
}

// admitLocked applies the admission policy to v, of weight w, under the
// key k its flight computed; k is not resident.
func (b *Bounded[K, V]) admitLocked(k K, v V, w int) bool {
	if b.cap <= 0 || w > b.cap {
		return false
	}
	if b.used+w > b.cap {
		if _, ok := b.door[k]; !ok {
			b.rememberLocked(k)
			return false
		}
		delete(b.door, k)
		for b.used+w > b.cap {
			b.evictLocked()
		}
	}
	e := &boundedEntry[K, V]{key: k, val: v, w: w}
	b.m[k] = e
	b.used += w
	b.pushFrontLocked(e)
	return true
}

// rememberLocked records a refused key in the doorkeeper, overwriting the
// oldest slot once the ring holds its bound. The overwritten slot's key is
// forgotten only if that slot is still its newest: a key admitted and
// later refused again holds a newer one.
func (b *Bounded[K, V]) rememberLocked(k K) {
	if bound := doorkeeperFactor * max(len(b.m), 1); len(b.doorQ) < bound {
		b.door[k] = len(b.doorQ)
		b.doorQ = append(b.doorQ, k)
		return
	}
	i := b.doorNext
	if j, ok := b.door[b.doorQ[i]]; ok && j == i {
		delete(b.door, b.doorQ[i])
	}
	b.doorQ[i] = k
	b.door[k] = i
	b.doorNext = (i + 1) % len(b.doorQ)
}

// forgetLocked empties the doorkeeper.
func (b *Bounded[K, V]) forgetLocked() {
	b.door = make(map[K]int)
	b.doorQ = nil
	b.doorNext = 0
}

// evictLocked drops the LRU entry, counting an eviction.
func (b *Bounded[K, V]) evictLocked() {
	if e := b.tail; e != nil {
		b.removeLocked(e)
		b.counters.Eviction()
	}
}

func (b *Bounded[K, V]) removeLocked(e *boundedEntry[K, V]) {
	b.unlinkLocked(e)
	delete(b.m, e.key)
	b.used -= e.w
}

func (b *Bounded[K, V]) pushFrontLocked(e *boundedEntry[K, V]) {
	e.prev = nil
	e.next = b.head
	if b.head != nil {
		b.head.prev = e
	}
	b.head = e
	if b.tail == nil {
		b.tail = e
	}
}

func (b *Bounded[K, V]) unlinkLocked(e *boundedEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		b.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (b *Bounded[K, V]) moveFrontLocked(e *boundedEntry[K, V]) {
	if b.head == e {
		return
	}
	b.unlinkLocked(e)
	b.pushFrontLocked(e)
}

// Weight returns the total weight of the resident entries.
func (b *Bounded[K, V]) Weight() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Len returns the number of resident entries.
func (b *Bounded[K, V]) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

// Reset drops every resident entry and the doorkeeper's memory, and zeroes
// the counters. Flights in progress are left to finish; their values are
// offered to the now-empty cache.
func (b *Bounded[K, V]) Reset() {
	b.mu.Lock()
	b.m = make(map[K]*boundedEntry[K, V])
	b.head, b.tail = nil, nil
	b.used = 0
	b.forgetLocked()
	b.mu.Unlock()
	b.counters.Reset()
}

// Stats returns the cache's current hit/miss snapshot.
func (b *Bounded[K, V]) Stats() stats.CacheSnapshot { return b.counters.Snapshot() }
