package runner

import (
	"fmt"
	"sync"
	"testing"

	"igosim/internal/stats"
)

// TestBoundedGetPutSameKey hammers Get and Put on one resident key from
// concurrent goroutines. Put rewrites the entry's value in place, so a Get
// that read the value outside the lock would race with it; run with -race.
func TestBoundedGetPutSameKey(t *testing.T) {
	b := NewBounded[int, int](4, stats.NewCacheCounters("test/bounded-same-key"))
	b.Put(1, 0)
	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			b.Put(1, i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if v, ok := b.Get(1); !ok || v < 0 || v > rounds {
				t.Errorf("Get(1) = %d, %v", v, ok)
				return
			}
		}
	}()
	wg.Wait()
	if v, ok := b.Get(1); !ok || v != rounds {
		t.Fatalf("after the hammer Get(1) = %d, %v, want %d", v, ok, rounds)
	}
}

// TestBoundedDoorkeeper drives the cache the way sim.RunFamily does — Get,
// and on a miss compute and Put — and checks the admission policy: a
// one-shot scan at capacity leaves the working set resident without an
// eviction, a refused key is admitted on its second miss, and the
// doorkeeper never remembers more than doorkeeperFactor × capacity keys.
func TestBoundedDoorkeeper(t *testing.T) {
	const capacity = 4
	counters := stats.NewCacheCounters("test/bounded-doorkeeper")
	b := NewBounded[string, int](capacity, counters)
	computes := 0
	lookup := func(k string) bool {
		if _, ok := b.Get(k); ok {
			return true
		}
		computes++
		b.Put(k, len(k))
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
		t.Fatal("hot hit on its second lookup: its first Put should have been refused")
	}
	if !lookup("hot") {
		t.Error("hot missed on its third lookup: its second miss should have admitted it")
	}
	if ev := counters.Snapshot().Evictions; ev != 1 {
		t.Errorf("evictions = %d after one admission at capacity, want 1", ev)
	}
	if _, ok := b.Get("w0"); ok {
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
		if got := b.Put(k, 0); got != want {
			t.Fatalf("Put(%s) admitted = %v, want %v", k, got, want)
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
		if got := b.Put(k, v); got != want {
			t.Fatalf("Put(%s, %d bytes) admitted = %v, want %v", k, len(v), got, want)
		}
		if w := b.Weight(); w > b.Cap() {
			t.Fatalf("weight %d over capacity %d after Put(%s)", w, b.Cap(), k)
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

	// A resident key re-Put heavier evicts LRU entries to make room.
	put("f", "ffff", true) // 8 + 4 + 1 = 13: evicts e
	resident("f", "g")
	evictions(4)

	b.SetCap(4)
	resident("f")
	evictions(5)
	if b.Weight() != 4 {
		t.Fatalf("weight = %d after shrinking to 4, want 4", b.Weight())
	}
}
