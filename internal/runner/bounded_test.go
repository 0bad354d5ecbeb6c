package runner

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"igosim/internal/stats"
)

// offer runs one flight on the non-resident key k that finishes with v,
// as a caller that missed k would, and reports whether v was admitted.
func offer[K comparable, V any](t *testing.T, b *Bounded[K, V], k K, v V) bool {
	t.Helper()
	if _, _, lead := b.Lookup(k); !lead {
		t.Fatalf("Lookup(%v) did not lead a flight", k)
	}
	return b.Finish(k, v, true)
}

// TestBoundedSameKeyFlights hammers Lookup and Finish on one key from
// concurrent goroutines while capacity flips between 0 and 4, so the key
// is dropped and led again many times: every lookup must get a value some
// leader finished with, and count exactly once. Run with -race.
func TestBoundedSameKeyFlights(t *testing.T) {
	counters := stats.NewCacheCounters("test/bounded-same-key")
	b := NewBounded[int, int](4, counters)
	const workers, rounds = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				b.SetCap(4 * (i % 2))
				runtime.Gosched()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				v, wait, lead := b.Lookup(1)
				if lead {
					b.Finish(1, i, true)
				}
				if wait != nil {
					v = <-wait
				}
				if v < 1 || v > rounds {
					t.Errorf("lookup %d got %d", i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if got := counters.Snapshot().Lookups(); got != workers*rounds {
		t.Errorf("lookups = %d, want %d", got, workers*rounds)
	}
	if n := len(b.flights); n != 0 {
		t.Errorf("%d flights left after every leader finished", n)
	}
}

// TestBoundedFlight checks one flight end to end: the first lookup leads
// and misses, later ones join and count as coalesced, Reset leaves the
// flight alone, and the leader's value reaches every waiter even when it
// is not admitted.
func TestBoundedFlight(t *testing.T) {
	counters := stats.NewCacheCounters("test/bounded-flight")
	b := NewBounded[string, int](4, counters)
	_, lw, lead := b.Lookup("k")
	if !lead || lw == nil {
		t.Fatal("first lookup did not lead")
	}
	var waits []<-chan int
	for range 2 {
		_, w, l := b.Lookup("k")
		if l || w == nil {
			t.Fatal("lookup of a key in flight did not join it")
		}
		waits = append(waits, w)
	}
	if s := counters.Snapshot(); s.Misses != 1 || s.Coalesced != 2 || s.Hits != 0 {
		t.Fatalf("counters %+v, want 1 miss + 2 coalesced", s)
	}
	b.Reset()
	if b.Finish("k", 7, false) {
		t.Fatal("Finish admitted a value it was not asked to")
	}
	for i, w := range append(waits, lw) {
		if v := <-w; v != 7 {
			t.Errorf("receiver %d got %d, want 7", i, v)
		}
	}
	if b.Len() != 0 || len(b.flights) != 0 {
		t.Fatalf("Len = %d, flights = %d after an unadmitted finish", b.Len(), len(b.flights))
	}
	if !offer(t, b, "k", 8) {
		t.Fatal("a key below capacity was not admitted")
	}
	if v, w, l := b.Lookup("k"); w != nil || l || v != 8 {
		t.Fatalf("Lookup after admission = %d, %v, %v; want a hit on 8", v, w, l)
	}
}

// TestBoundedDoorkeeper drives the cache the way sim.RunFamily does — a
// lookup, and on a miss compute and finish — and checks the admission policy: a
// one-shot scan at capacity leaves the working set resident without an
// eviction, a refused key is admitted on its second miss, and the
// doorkeeper never remembers more than doorkeeperFactor × capacity keys.
func TestBoundedDoorkeeper(t *testing.T) {
	const capacity = 4
	counters := stats.NewCacheCounters("test/bounded-doorkeeper")
	b := NewBounded[string, int](capacity, counters)
	computes := 0
	lookup := func(k string) bool {
		if _, wait, _ := b.Lookup(k); wait == nil {
			return true
		}
		computes++
		b.Finish(k, len(k), true)
		return false
	}

	for i := 0; i < capacity; i++ {
		lookup(fmt.Sprintf("w%d", i))
	}
	if b.Len() != capacity {
		t.Fatalf("Len = %d after filling capacity %d", b.Len(), capacity)
	}

	// A one-shot scan, long enough to overflow the doorkeeper several
	// times, must neither evict nor displace the working set.
	for i := 0; i < 5*doorkeeperFactor*capacity; i++ {
		if lookup(fmt.Sprintf("scan%d", i)) {
			t.Fatalf("scan key %d hit", i)
		}
		if n, q := len(b.door), len(b.doorQ); n > doorkeeperFactor*capacity || q > doorkeeperFactor*capacity {
			t.Fatalf("doorkeeper holds %d keys in %d slots, bound %d", n, q, doorkeeperFactor*capacity)
		}
	}
	if ev := counters.Snapshot().Evictions; ev != 0 {
		t.Errorf("%d evictions during a one-shot scan, want 0", ev)
	}
	for i := 0; i < capacity; i++ {
		if !lookup(fmt.Sprintf("w%d", i)) {
			t.Errorf("w%d missed after the scan: the scan displaced the working set", i)
		}
	}

	// A refused key is admitted on its second miss, evicting the LRU tail
	// (w0: the rest of the working set was touched after it).
	if lookup("hot") {
		t.Fatal("hot hit before it was ever stored")
	}
	if lookup("hot") {
		t.Fatal("hot hit on its second lookup: its first offer should have been refused")
	}
	if !lookup("hot") {
		t.Error("hot missed on its third lookup: its second miss should have admitted it")
	}
	if ev := counters.Snapshot().Evictions; ev != 1 {
		t.Errorf("evictions = %d after one admission at capacity, want 1", ev)
	}
	if _, ok := b.m["w0"]; ok {
		t.Error("w0 still resident: it was the LRU tail and should have been evicted")
	}
	if b.Len() != capacity {
		t.Errorf("Len = %d, want %d", b.Len(), capacity)
	}
}

// TestBoundedDoorkeeperRecycledSlot checks the doorkeeper ring forgets a
// key only through its newest slot: a key admitted (leaving the
// doorkeeper), evicted and refused again must survive the ring
// overwriting the slot it held before its admission.
func TestBoundedDoorkeeperRecycledSlot(t *testing.T) {
	b := NewBounded[string, int](1, stats.NewCacheCounters("test/bounded-recycled-slot"))
	put := func(k string, want bool) {
		t.Helper()
		if got := offer(t, b, k, 0); got != want {
			t.Fatalf("offer(%s) admitted = %v, want %v", k, got, want)
		}
	}
	put("r", true)  // below capacity
	put("k", false) // slot 0
	put("k", true)  // evicts r; slot 0 is now stale
	put("r", false) // slot 1
	put("r", true)  // evicts k
	put("k", false) // slot 2
	for i := 3; i < doorkeeperFactor; i++ {
		put(fmt.Sprintf("s%d", i), false)
	}
	put("s8", false) // the ring is full: overwrites k's stale slot 0
	put("k", true)   // k is still remembered through slot 2
}

// TestBoundedWeighted checks that a weighted cache bounds the sum of its
// entries' weights, not their count: admission waits for room by weight,
// an admitted heavy entry evicts as many LRU entries as it must, an entry
// heavier than the capacity is never admitted, and shrinking the capacity
// evicts down to the new weight bound.
func TestBoundedWeighted(t *testing.T) {
	counters := stats.NewCacheCounters("test/bounded-weighted")
	b := NewWeighted[string, string](10, func(v string) int { return len(v) }, counters)
	put := func(k, v string, want bool) {
		t.Helper()
		if got := offer(t, b, k, v); got != want {
			t.Fatalf("offer(%s, %d bytes) admitted = %v, want %v", k, len(v), got, want)
		}
		if w := b.Weight(); w > b.Cap() {
			t.Fatalf("weight %d over capacity %d after offer(%s)", w, b.Cap(), k)
		}
	}
	resident := func(want ...string) {
		t.Helper()
		if b.Len() != len(want) {
			t.Fatalf("Len = %d, want %d (%v)", b.Len(), len(want), want)
		}
		for _, k := range want {
			if _, ok := b.m[k]; !ok {
				t.Fatalf("%s not resident, want %v", k, want)
			}
		}
	}
	evictions := func(want int64) {
		t.Helper()
		if got := counters.Snapshot().Evictions; got != want {
			t.Fatalf("evictions = %d, want %d", got, want)
		}
	}

	put("a", "aaaa", true)
	put("b", "bbbb", true)
	put("c", "cccc", false) // 12 > 10: refused once, remembered
	resident("a", "b")
	put("c", "cccc", true) // evicts a alone: 4 + 4 fits
	resident("b", "c")
	evictions(1)

	put("d", "ddddddddddd", false) // heavier than the whole capacity
	put("d", "ddddddddddd", false)
	resident("b", "c")

	put("e", "eeeeeeee", false)
	put("e", "eeeeeeee", true) // needs 8: evicts b and c
	resident("e")
	evictions(3)
	if b.Weight() != 8 {
		t.Fatalf("weight = %d, want 8", b.Weight())
	}

	// Small entries fill the remaining room without a doorkeeper round.
	put("f", "f", true)
	put("g", "g", true)
	resident("e", "f", "g")

	// A recurring key evicts as many LRU entries as its weight needs.
	put("h", "hhhh", false) // 10 + 4 > 10: refused once
	put("h", "hhhh", true)  // evicts e alone: 1 + 1 + 4 fits
	resident("f", "g", "h")
	evictions(4)

	b.SetCap(4) // evicts f, then g
	resident("h")
	evictions(6)
	if b.Weight() != 4 {
		t.Fatalf("weight = %d after shrinking to 4, want 4", b.Weight())
	}
}
