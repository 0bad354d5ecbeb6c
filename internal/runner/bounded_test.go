package runner

import (
	"sync"
	"testing"
)

// TestBoundedGetPutSameKey hammers Get and Put on one resident key from
// concurrent goroutines. Put rewrites the entry's value in place, so a Get
// that read the value outside the lock would race with it; run with -race.
func TestBoundedGetPutSameKey(t *testing.T) {
	b := NewBounded[int, int]("test/bounded-same-key", 4)
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
