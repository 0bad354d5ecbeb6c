package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withParallelism runs the body at the given pool width, restoring the
// previous width afterwards.
func withParallelism(t *testing.T, n int, body func()) {
	t.Helper()
	prev := SetParallelism(n)
	defer SetParallelism(prev)
	body()
}

func TestSetParallelism(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	if got := SetParallelism(7); got != 3 {
		t.Fatalf("SetParallelism returned %d, want previous 3", got)
	}
	// n <= 0 restores the GOMAXPROCS default.
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("default Parallelism() = %d, want >= 1", got)
	}
}

func TestMapOrderIndependentOfWidth(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	want := Map(items, func(v int) int { return v * v }) // current width
	for _, width := range []int{1, 2, 4, 16, 128} {
		withParallelism(t, width, func() {
			got := Map(items, func(v int) int { return v * v })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("width %d: got[%d] = %d, want %d", width, i, got[i], want[i])
				}
			}
		})
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got := Map(nil, func(v int) int { return v }); len(got) != 0 {
		t.Fatalf("Map(nil) = %v", got)
	}
	if got := Map([]int{42}, func(v int) int { return v + 1 }); got[0] != 43 {
		t.Fatalf("Map single = %v", got)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const width = 4
	withParallelism(t, width, func() {
		var cur, peak atomic.Int64
		Map(make([]int, 64), func(int) int {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			defer cur.Add(-1)
			return 0
		})
		if p := peak.Load(); p > width {
			t.Fatalf("observed %d concurrent workers, want <= %d", p, width)
		}
	})
}

func TestMapErrLowestIndexWins(t *testing.T) {
	items := make([]int, 64)
	for _, width := range []int{1, 8} {
		withParallelism(t, width, func() {
			_, err := MapErr(context.Background(), items, func(_ context.Context, _ int) (int, error) {
				return 0, errors.New("boom")
			})
			if err == nil || err.Error() != "boom" {
				t.Fatalf("width %d: err = %v", width, err)
			}
		})
	}

	// With several failing items, the lowest-indexed error is reported:
	// indices are claimed in order, so the earliest failing index is
	// always among those observed before cancellation settles, and the
	// lowest observed one wins.
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = i
	}
	withParallelism(t, 8, func() {
		_, err := MapErr(context.Background(), idx, func(_ context.Context, v int) (int, error) {
			if v >= 10 {
				return 0, fmt.Errorf("item %d failed", v)
			}
			return v, nil
		})
		if err == nil || err.Error() != "item 10 failed" {
			t.Fatalf("err = %v, want item 10 failed", err)
		}
	})
}

func TestMapErrSuccess(t *testing.T) {
	items := []int{1, 2, 3, 4, 5, 6, 7, 8}
	withParallelism(t, 4, func() {
		got, err := MapErr(context.Background(), items, func(_ context.Context, v int) (int, error) {
			return v * 10, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range items {
			if got[i] != v*10 {
				t.Fatalf("got[%d] = %d", i, got[i])
			}
		}
	})
}

func TestMapErrCancelledParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, width := range []int{1, 4} {
		withParallelism(t, width, func() {
			var calls atomic.Int64
			_, err := MapErr(ctx, make([]int, 32), func(_ context.Context, _ int) (int, error) {
				calls.Add(1)
				return 0, nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("width %d: err = %v, want context.Canceled", width, err)
			}
		})
	}
}

func TestMapErrStopsClaimingAfterFailure(t *testing.T) {
	// After the first item fails, cancelled workers stop claiming; far
	// fewer than all items run. Can't assert an exact count (in-flight
	// items finish), but with width 2 and item 0 failing, the tail of a
	// long slice must be untouched.
	withParallelism(t, 2, func() {
		var calls atomic.Int64
		_, err := MapErr(context.Background(), make([]int, 10_000), func(_ context.Context, _ int) (int, error) {
			calls.Add(1)
			return 0, errors.New("first item fails")
		})
		if err == nil {
			t.Fatal("want error")
		}
		if n := calls.Load(); n > 100 {
			t.Fatalf("%d items ran after early failure, want early stop", n)
		}
	})
}

func TestShards(t *testing.T) {
	for _, tc := range []struct {
		total, size int
		want        []Shard
	}{
		{0, 10, nil},
		{-3, 10, nil},
		{5, 0, []Shard{{0, 0, 5}}},
		{5, 10, []Shard{{0, 0, 5}}},
		{10, 5, []Shard{{0, 0, 5}, {1, 5, 10}}},
		{11, 5, []Shard{{0, 0, 5}, {1, 5, 10}, {2, 10, 11}}},
		{1, 1, []Shard{{0, 0, 1}}},
	} {
		got := Shards(tc.total, tc.size)
		if len(got) != len(tc.want) {
			t.Fatalf("Shards(%d, %d) = %v, want %v", tc.total, tc.size, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("Shards(%d, %d)[%d] = %v, want %v", tc.total, tc.size, i, got[i], tc.want[i])
			}
		}
	}
	// Shards cover [0, total) exactly once, in order, whatever the size.
	for _, size := range []int{1, 3, 7, 100} {
		next := 0
		for _, s := range Shards(100, size) {
			if s.Lo != next || s.Hi <= s.Lo || s.Len() != s.Hi-s.Lo {
				t.Fatalf("size %d: bad shard %v at offset %d", size, s, next)
			}
			next = s.Hi
		}
		if next != 100 {
			t.Fatalf("size %d: shards cover %d of 100", size, next)
		}
	}
}

// goroutineID parses the current goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestNestedMapSharesOneBudget nests Map three deep: whatever the width,
// no more than Parallelism() leaf calls run at once from the one root,
// every level's results land in input order, the budget's slots all come
// back, and at width 1 every call runs on the caller's goroutine.
func TestNestedMapSharesOneBudget(t *testing.T) {
	items := []int{0, 1, 2, 3, 4}
	for _, width := range []int{1, 2, 4, 8} {
		withParallelism(t, width, func() {
			root := goroutineID()
			var cur, peak atomic.Int64
			var offRoot atomic.Bool
			leaf := func(v int) int {
				n := cur.Add(1)
				defer cur.Add(-1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if goroutineID() != root {
					offRoot.Store(true)
				}
				time.Sleep(50 * time.Microsecond)
				return v
			}
			got := Map(items, func(a int) [][]int {
				return Map(items, func(b int) []int {
					return Map(items, func(c int) int { return leaf(100*a + 10*b + c) })
				})
			})
			for a := range items {
				for b := range items {
					for c := range items {
						if v := got[a][b][c]; v != 100*a+10*b+c {
							t.Fatalf("width %d: got[%d][%d][%d] = %d", width, a, b, c, v)
						}
					}
				}
			}
			if p := peak.Load(); p > int64(width) || (width > 1 && p < 2) {
				t.Errorf("width %d: %d leaf calls ran at once", width, p)
			}
			if width == 1 && offRoot.Load() {
				t.Error("width 1: a call ran off the caller's goroutine")
			}
			if n := helpers.Load(); n != 0 {
				t.Errorf("width %d: %d helper slots still taken", width, n)
			}
		})
	}
}

// TestWaitingCallerLendsItsSlot checks that a caller blocked on its
// helpers lends its slot: at width 2 the root finishes its item once its
// one helper has started the other, and waits while the helper works
// that item's nested fan-out, which must then run two leaves at once.
func TestWaitingCallerLendsItsSlot(t *testing.T) {
	withParallelism(t, 2, func() {
		var cur, peak atomic.Int64
		started := make(chan struct{})
		Map([]int{0, 1}, func(a int) int {
			if a == 0 {
				<-started
				return 0
			}
			close(started)
			Map(make([]int, 40), func(int) int {
				n := cur.Add(1)
				defer cur.Add(-1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(time.Millisecond)
				return 0
			})
			return 0
		})
		if p := peak.Load(); p != 2 {
			t.Errorf("the nested fan-out ran %d leaves at once, want 2", p)
		}
		if n := helpers.Load(); n != 0 {
			t.Errorf("%d helper slots still taken", n)
		}
	})
}

// TestFlightWaiterLendsItsSlot checks that a goroutine blocked on a
// single-flight wait lends its worker slot. At width 2 the root leads a
// GetOrCompute flight while its one helper waits on it, so every slot is
// taken; the leader's compute then runs a two-item Map whose items
// rendezvous, which they can only do if the Map recruits a helper into
// the slot the waiter lent. An item that waits for its partner in vain
// gives up after a timeout, so the test fails rather than hangs.
func TestFlightWaiterLendsItsSlot(t *testing.T) {
	const timeout = 5 * time.Second
	withParallelism(t, 2, func() {
		c := NewCache[int, int]("test/flight-lend")
		spin := func(what string, done func() bool) {
			for deadline := time.Now().Add(timeout); !done(); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Errorf("timed out waiting for %s", what)
					return
				}
			}
		}
		var met atomic.Int64
		got := Map([]int{0, 1}, func(a int) int {
			if a == 1 { // the root's helper: join the root's flight
				spin("the leader's miss", func() bool { return c.Stats().Misses > 0 })
				return c.GetOrCompute(0, func() int { return -1 })
			}
			return c.GetOrCompute(0, func() int {
				spin("the waiter to lend its slot", func() bool { return helpers.Load() == 0 })
				arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
				Map([]int{0, 1}, func(i int) int {
					close(arrived[i])
					select {
					case <-arrived[1-i]:
						met.Add(1)
					case <-time.After(timeout):
					}
					return 0
				})
				return 1
			})
		})
		if got[0] != 1 || got[1] != 1 {
			t.Errorf("flight values %v, want [1 1]", got)
		}
		if s := c.Stats(); s.Misses != 1 || s.Coalesced != 1 {
			t.Errorf("stats %s, want one miss and one coalesced wait", s)
		}
		if n := met.Load(); n != 2 {
			t.Errorf("%d of the leader's two items met their partner: the waiter's slot was not lent", n)
		}
		if n := helpers.Load(); n != 0 {
			t.Errorf("%d helper slots still taken", n)
		}
	})
}

// TestOnceWaiterLendsItsSlot checks that a goroutine blocked in Once.Do
// while another caller runs the function lends its worker slot. At width
// 2 the root runs the function while its one helper waits in Do, so every
// slot is taken; the function then runs a two-item Map whose items
// rendezvous, which they can only do if the Map recruits a helper into
// the slot the waiter lent. (A waiter in sync.Once's Do keeps its slot,
// and the items time out.)
func TestOnceWaiterLendsItsSlot(t *testing.T) {
	const timeout = 5 * time.Second
	withParallelism(t, 2, func() {
		spin := func(what string, done func() bool) {
			for deadline := time.Now().Add(timeout); !done(); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Errorf("timed out waiting for %s", what)
					return
				}
			}
		}
		var once Once
		var entered atomic.Bool
		var runs, met atomic.Int64
		Map([]int{0, 1}, func(a int) int {
			if a == 1 { // the root's helper: wait for the root's call
				spin("the first call", entered.Load)
				once.Do(func() { runs.Add(1) })
				return 0
			}
			once.Do(func() {
				runs.Add(1)
				entered.Store(true)
				spin("the waiter to lend its slot", func() bool { return helpers.Load() == 0 })
				arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
				Map([]int{0, 1}, func(i int) int {
					close(arrived[i])
					select {
					case <-arrived[1-i]:
						met.Add(1)
					case <-time.After(timeout):
					}
					return 0
				})
			})
			return 0
		})
		if n := runs.Load(); n != 1 {
			t.Errorf("the function ran %d times, want once", n)
		}
		if n := met.Load(); n != 2 {
			t.Errorf("%d of the function's two items met their partner: the waiter's slot was not lent", n)
		}
		if n := helpers.Load(); n != 0 {
			t.Errorf("%d helper slots still taken", n)
		}
	})
}

// TestOncePanicReleasesWaiters checks that a panicking function still
// releases the callers waiting on it, and that Do does not run f again.
func TestOncePanicReleasesWaiters(t *testing.T) {
	var once Once
	func() {
		defer func() { _ = recover() }()
		once.Do(func() { panic("lowering failed") })
	}()
	ran := false
	once.Do(func() { ran = true })
	if ran {
		t.Error("Do ran its function again after a panic")
	}
}
