// The residency fuzz target lives in the external test package: it decodes
// its input through internal/proptest, which imports internal/sim.
package sim_test

import (
	"testing"

	"igosim/internal/proptest"
	"igosim/internal/sim"
)

// FuzzResidency differentially tests the engines' LRU (intrusive list over
// dense tile-ID arrays) against a brutally simple slice model: identical
// hits, misses, evictions, eviction order, byte occupancy and full recency
// ordering after every operation.
func FuzzResidency(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x10, 0x20, 0x30, 0x40})
	f.Add([]byte{0x7f, 0x03, 0x91, 0x15, 0xe4, 0x33, 0x02, 0x58, 0x9b, 0xcc, 0xdd})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := proptest.FromBytes(data)
		capacity := int64(s.IntRange(8, 512))
		r := sim.NewResidency(capacity, 31)
		ref := &refLRU{capacity: capacity}

		nops := s.IntRange(1, 200)
		for i := 0; i < nops; i++ {
			key := s.IntRange(0, 30)
			switch s.Pick(4) {
			case 0:
				wantHit := ref.touch(key)
				if got := r.Touch(key); got != wantHit {
					t.Fatalf("op %d: touch(%d) = %v, reference says %v", i, key, got, wantHit)
				}
			case 1:
				bytes := int64(s.IntRange(1, int(capacity)))
				resident := ref.find(key) >= 0
				wantEv := ref.insert(key, bytes)
				gotEv, changed := r.Insert(key, bytes)
				if changed == resident {
					t.Fatalf("op %d: insert(%d) changed=%v with the tile resident=%v", i, key, changed, resident)
				}
				if len(gotEv) != len(wantEv) {
					t.Fatalf("op %d: insert(%d,%d) evicted %v, reference %v", i, key, bytes, gotEv, wantEv)
				}
				for j := range gotEv {
					if int(gotEv[j]) != wantEv[j] {
						t.Fatalf("op %d: eviction order %v, reference %v", i, gotEv, wantEv)
					}
				}
			case 2:
				want := ref.remove(key)
				if got := r.Remove(key); got != want {
					t.Fatalf("op %d: remove(%d) = %v, reference says %v", i, key, got, want)
				}
			default:
				want := ref.find(key) >= 0
				if got := r.Resident(key); got != want {
					t.Fatalf("op %d: Resident(%d) = %v, reference says %v", i, key, got, want)
				}
			}

			if r.Used() != ref.used() {
				t.Fatalf("op %d: used %d, reference %d", i, r.Used(), ref.used())
			}
			gotKeys := r.Keys()
			if len(gotKeys) != len(ref.entries) {
				t.Fatalf("op %d: %d resident tiles, reference %d", i, len(gotKeys), len(ref.entries))
			}
			for j, k := range gotKeys {
				if int(k) != ref.entries[j].key {
					t.Fatalf("op %d: recency order %v, reference %v", i, gotKeys, ref.keyList())
				}
			}
		}
		if r.Stats() != (sim.SPMStats{Hits: ref.hits, Misses: ref.misses, Evictions: ref.evictions}) {
			t.Fatalf("stats %+v, reference hits %d misses %d evictions %d",
				r.Stats(), ref.hits, ref.misses, ref.evictions)
		}
	})
}

// refLRU is the naive reference: a slice ordered most-recently-used first.
type refLRU struct {
	capacity                int64
	entries                 []refEntry
	hits, misses, evictions int64
}

type refEntry struct {
	key   int
	bytes int64
}

func (r *refLRU) find(key int) int {
	for i, e := range r.entries {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (r *refLRU) used() int64 {
	var u int64
	for _, e := range r.entries {
		u += e.bytes
	}
	return u
}

func (r *refLRU) touch(key int) bool {
	i := r.find(key)
	if i < 0 {
		r.misses++
		return false
	}
	r.hits++
	e := r.entries[i]
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	r.entries = append([]refEntry{e}, r.entries...)
	return true
}

func (r *refLRU) insert(key int, bytes int64) []int {
	if i := r.find(key); i >= 0 {
		e := r.entries[i]
		r.entries = append(r.entries[:i], r.entries[i+1:]...)
		r.entries = append([]refEntry{e}, r.entries...)
		return nil
	}
	var evicted []int
	for r.used()+bytes > r.capacity && len(r.entries) > 0 {
		last := r.entries[len(r.entries)-1]
		r.entries = r.entries[:len(r.entries)-1]
		r.evictions++
		evicted = append(evicted, last.key)
	}
	r.entries = append([]refEntry{{key: key, bytes: bytes}}, r.entries...)
	return evicted
}

func (r *refLRU) remove(key int) bool {
	i := r.find(key)
	if i < 0 {
		return false
	}
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	return true
}

func (r *refLRU) keyList() []int {
	out := make([]int, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.key
	}
	return out
}
