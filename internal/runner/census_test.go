package runner

import (
	"testing"

	"igosim/internal/stats"
)

// TestCensus checks the distinct-key census: a key counts its entries
// once, a lookup misses only the first time its key is seen, Entries reads
// the count, and Reset forgets the keys.
func TestCensus(t *testing.T) {
	counters := stats.NewCacheCounters("test/census")
	c := NewCensus[string](counters)
	if !c.Add("fam", 4) || c.Add("fam", 4) {
		t.Fatal("Add reported a repeated key as new, or a new key as seen")
	}
	c.Lookup("one")
	c.Lookup("one")
	c.Lookup("two")
	s := counters.Snapshot()
	if s.Entries != 6 || s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("entries %d, misses %d, hits %d; want 6, 2, 1", s.Entries, s.Misses, s.Hits)
	}
	c.Reset()
	if c.Len() != 0 || !c.Add("fam", 4) {
		t.Fatal("Reset kept keys")
	}
}
