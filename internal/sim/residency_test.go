package sim

import (
	"testing"
	"testing/quick"

	"igosim/internal/schedule"
)

// newResidency returns an empty residency set of capacity bytes over the
// tile IDs 0..n-1.
func newResidency(capacity int64, n int) *residency {
	r := &residency{capacity: capacity}
	r.grow(n)
	r.reset()
	return r
}

// keys lists the resident tile IDs in recency order, most recently used
// first.
func (r *residency) keys() []int32 {
	var ks []int32
	for i := r.head; i != nilID; i = r.slots[i].next {
		ks = append(ks, i)
	}
	return ks
}

func TestInsertAndTouch(t *testing.T) {
	r := newResidency(100, 4)
	if r.touch(1) {
		t.Fatal("hit on empty set")
	}
	if evicted, changed := r.insert(1, 40); len(evicted) != 0 || !changed {
		t.Fatalf("unexpected evictions %v (changed %v)", evicted, changed)
	}
	if !r.touch(1) {
		t.Fatal("miss after insert")
	}
	if r.used != 40 || len(r.keys()) != 1 {
		t.Fatalf("used/len = %d/%d", r.used, len(r.keys()))
	}
	if r.stats.Hits != 1 || r.stats.Misses != 1 {
		t.Fatalf("stats = %+v", r.stats)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	r := newResidency(100, 4)
	r.insert(0, 40)
	r.insert(1, 40)
	r.touch(0) // refresh 0: 1 is now least recently used
	evicted, _ := r.insert(2, 40)
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted %v, want [1]", evicted)
	}
	if !r.Resident(0) || !r.Resident(2) || r.Resident(1) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestInsertEvictsMultiple(t *testing.T) {
	r := newResidency(100, 4)
	r.insert(0, 30)
	r.insert(1, 30)
	r.insert(2, 30)
	evicted, _ := r.insert(3, 90)
	if len(evicted) != 3 {
		t.Fatalf("evicted %v, want all three", evicted)
	}
	if r.used != 90 || len(r.keys()) != 1 || r.stats.Evictions != 3 {
		t.Fatalf("used/len/evictions = %d/%d/%d", r.used, len(r.keys()), r.stats.Evictions)
	}
}

func TestEvictionsCountedInStats(t *testing.T) {
	r := newResidency(50, 4)
	r.insert(1, 30)
	r.insert(2, 30)
	if r.stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", r.stats.Evictions)
	}
}

func TestReinsertRefreshesRecency(t *testing.T) {
	r := newResidency(100, 4)
	r.insert(0, 40)
	r.insert(1, 40)
	if _, changed := r.insert(0, 40); changed {
		t.Fatal("re-inserting a resident tile reported a change")
	}
	if r.used != 80 {
		t.Fatalf("used = %d after refresh", r.used)
	}
	evicted, _ := r.insert(2, 40)
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted %v, want [1]", evicted)
	}
}

func TestRemove(t *testing.T) {
	r := newResidency(100, 4)
	r.insert(0, 60)
	if !r.remove(0) {
		t.Fatal("remove reported missing")
	}
	if r.remove(0) {
		t.Fatal("double remove succeeded")
	}
	if r.used != 0 || r.Resident(0) || len(r.keys()) != 0 {
		t.Fatal("remove left residue")
	}
}

func TestFlushKeepsStats(t *testing.T) {
	r := newResidency(100, 4)
	r.insert(0, 10)
	r.touch(0)
	r.reset()
	if r.used != 0 || len(r.keys()) != 0 || r.Resident(0) {
		t.Fatal("reset incomplete")
	}
	if r.stats.Hits != 1 {
		t.Fatal("reset cleared stats")
	}
}

func TestOversizedTilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tile larger than the set")
		}
	}()
	newResidency(10, 2).insert(1, 11)
}

func TestInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive tile size")
		}
	}()
	newResidency(10, 2).insert(1, 0)
}

func TestKeysRecencyOrder(t *testing.T) {
	r := newResidency(100, 4)
	r.insert(0, 10)
	r.insert(1, 10)
	r.insert(2, 10)
	if got := r.keys(); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("keys = %v, want [2 1 0]", got)
	}
	// Touching refreshes recency; removing drops the tile from the order.
	r.touch(0)
	r.remove(1)
	if got := r.keys(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("keys after touch/remove = %v, want [0 2]", got)
	}
}

// TestAccountingInvariant checks with random workloads that used always
// equals the sum of resident tile sizes and never exceeds capacity.
func TestAccountingInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		r := newResidency(256, 37)
		shadow := make(map[int32]int64)
		for _, op := range ops {
			id := schedule.TileID(op % 37)
			size := int64(op%63) + 1
			if op%3 == 0 {
				if r.remove(id) {
					delete(shadow, int32(id))
				}
				continue
			}
			if r.touch(id) {
				continue
			}
			evicted, _ := r.insert(id, size)
			for _, v := range evicted {
				delete(shadow, v)
			}
			shadow[int32(id)] = size
			var sum int64
			for _, s := range shadow {
				sum += s
			}
			if r.used != sum || r.used > r.capacity || len(r.keys()) != len(shadow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRegrowResetsStaleSlots checks that a set regrown for another tile
// table, as a pooled engine's Bind regrows it, reads empty after reset:
// grow keeps the reused slots' contents, and a stale size would read as a
// resident tile.
func TestRegrowResetsStaleSlots(t *testing.T) {
	r := newResidency(100, 4)
	r.insert(1, 30)
	r.insert(3, 30)
	r.grow(2)
	r.reset()
	r.grow(4)
	r.reset()
	for id := range 4 {
		if r.Resident(id) {
			t.Fatalf("tile %d resident after reset", id)
		}
	}
	if r.touch(3) || r.used != 0 || len(r.keys()) != 0 {
		t.Fatal("reset left a stale slot")
	}
	if evicted, changed := r.insert(3, 30); len(evicted) != 0 || !changed {
		t.Fatalf("insert after reset: evicted %v, changed %v", evicted, changed)
	}
}
