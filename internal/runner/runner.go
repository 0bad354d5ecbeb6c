// Package runner is the bounded parallel execution engine behind the
// simulator's evaluation pipeline. Every simulation in this repository is a
// pure function of its inputs — an NPU configuration, a layer's tile
// parameters and a policy — so experiment grids (model x policy x config)
// are embarrassingly parallel. The runner provides:
//
//   - a process-wide parallelism setting (GOMAXPROCS by default, the CLIs'
//     -j flag and igo.Parallelism override it);
//   - Map / MapErr: indexed fan-out/fan-in with deterministic result
//     ordering (results land at their input index, so output is
//     byte-identical regardless of worker count) and, for MapErr, context
//     cancellation on the first error. Every fan-out draws on one
//     process-wide worker budget: the caller works its own items, and each
//     claim that leaves items unclaimed recruits a helper goroutine without
//     blocking while fewer than Parallelism()-1 helpers run. A goroutine
//     blocked on a single-flight wait (Await) lends its slot for the wait.
//     Nested fan-outs (figures → models → layers → partition plans →
//     tuner family members) therefore keep at most roots + Parallelism()-1
//     goroutines running items, where a pool per call would put
//     Parallelism()^depth in flight;
//   - Shards: deterministic partitioning of a flattened work grid into
//     contiguous index ranges, the unit of checkpointing for resumable
//     sweeps (internal/dse);
//   - the simulator's caches, all single-flight: under one lock a key is
//     resident, in flight, or neither, so concurrent misses of one key
//     compute it once. Cache (cache.go) is sharded and unbounded; Bounded
//     (bounded.go) is a capacity-bounded LRU whose leaders finish a flight
//     themselves (Lookup, Finish) and may decline to admit its value.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"igosim/internal/metrics"
	"igosim/internal/trace"
)

// Pool metrics (wall domain: they describe host execution, not simulated
// cycles). The task counter is a single atomic add per task; the latency
// histogram additionally needs two clock reads, so it is collected only
// when tracing or metrics timing is on — the disabled path reads no clock.
var (
	mTasks = metrics.NewCounter("runner_tasks_total",
		"tasks executed by the worker pool", metrics.Wall)
	mPoolWidth = metrics.NewGauge("runner_pool_width",
		"worker-pool width as of the last SetParallelism", metrics.Wall)
	mTaskMicros = metrics.NewHistogram("runner_task_us",
		"per-task wall latency in microseconds (collected while tracing or metrics timing is enabled)", metrics.Wall)
	mFlightWaits = metrics.NewCounter("runner_flight_waits_total",
		"single-flight waits that blocked, lending their worker slot for the wait", metrics.Wall)
)

// parallelism holds the worker-pool width; 0 means "use GOMAXPROCS".
var parallelism atomic.Int64

// Parallelism returns the current worker-pool width used by Map and MapErr.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the worker-pool width and returns the previous
// setting. n <= 0 resets to the default (GOMAXPROCS). The setting is
// process-wide: simulations are pure, so the width affects only wall-clock
// time, never results.
func SetParallelism(n int) int {
	prev := Parallelism()
	if n <= 0 {
		n = 0
	}
	parallelism.Store(int64(n))
	mPoolWidth.Set(int64(Parallelism()))
	return prev
}

// helpers counts the worker slots in use process-wide: the one budget
// behind every fan-out, however deeply nested. A running helper goroutine
// holds a slot; a fan-out's caller blocked waiting for its helpers lends
// one back (see fanOut), and so does any goroutine blocked on a
// single-flight wait (Await).
var helpers atomic.Int64

// recruit takes a helper slot without blocking, reporting whether it got
// one. The budget is Parallelism()-1: every fan-out's caller works its own
// items, so the goroutines running items number at most the roots (the
// goroutines no fan-out started) plus Parallelism()-1.
func recruit() bool {
	limit := int64(Parallelism() - 1)
	for {
		n := helpers.Load()
		if n >= limit {
			return false
		}
		if helpers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// fanOut runs work(worker, claimed) on the caller as worker 0. work calls
// claimed(next) after each claim, next being the index of the following
// item; while items remain, each such call recruits a helper running
// work too, if the budget has a free slot. fanOut returns once every
// worker has.
//
// A caller left waiting for its helpers runs nothing, so it lends a slot
// to the budget for the wait, and the last of its helpers to finish hands
// its own slot back instead of releasing it: whoever finishes the nested
// work keeps its share of the CPU, and the number of goroutines running
// items from one root never exceeds Parallelism().
func fanOut(items int, work func(worker int, claimed func(next int))) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		active  int  // helpers still running
		workers int  // helpers recruited so far
		lent    bool // the caller lent a slot while it waits
	)
	var claimed func(next int)
	claimed = func(next int) {
		if next >= items || !recruit() {
			return
		}
		mu.Lock()
		active++
		workers++
		w := workers
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w, claimed)
			mu.Lock()
			active--
			handBack := active == 0 && lent
			mu.Unlock()
			if !handBack {
				helpers.Add(-1)
			}
		}()
	}
	work(0, claimed)
	mu.Lock()
	if active > 0 {
		lent = true
		helpers.Add(-1)
	}
	mu.Unlock()
	wg.Wait()
}

// Await receives the value a single-flight wait delivers on ch: a
// Bounded.Lookup wait, or a Cache flight's delivery. ok is false when ch
// was closed without a value. A caller that would block lends its worker
// slot to the budget for the wait, so the flight's leader, which may be
// running a nested fan-out, can recruit a helper in the waiter's place,
// and takes the slot back once the value arrives. It takes it back at
// once, even while the helper it made room for still runs; recruit then
// finds no free slot until enough helpers finish, so the budget is
// exceeded only by waiters just woken, and only until then.
func Await[V any](ch <-chan V) (v V, ok bool) {
	select {
	case v, ok = <-ch:
		return v, ok
	default:
	}
	helpers.Add(-1)
	mFlightWaits.Inc()
	v, ok = <-ch
	helpers.Add(1)
	return v, ok
}

// Once runs a function once, as sync.Once does, except that a caller
// that finds it running waits through Await and so lends its worker slot
// until it returns: a family of members that share one lowering blocks
// no slot the lowering's own fan-out could use. The zero value is ready;
// a Once must not be copied after first use. If f panics, Do returns in
// the waiters as if it had returned.
type Once struct {
	mu   sync.Mutex
	done chan struct{}
}

// Do calls f if no call of Do on o has, and otherwise returns once the
// call that does has returned.
func (o *Once) Do(f func()) {
	o.mu.Lock()
	if done := o.done; done != nil {
		o.mu.Unlock()
		Await(done)
		return
	}
	done := make(chan struct{})
	o.done = done
	o.mu.Unlock()
	defer close(done)
	f()
}

// Map applies fn to every item and returns the results in input order.
// Items run on the caller and on helpers recruited from the shared worker
// budget (fanOut); with a width of 1 every item runs inline on the calling
// goroutine.
func Map[T, R any](items []T, fn func(T) R) []R {
	out := make([]R, len(items))
	sink := trace.Active() // one atomic load per Map call; nil when tracing is off
	var next atomic.Int64
	fanOut(len(items), func(w int, claimed func(int)) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(items) {
				return
			}
			claimed(i + 1)
			out[i] = runTask(sink, w, i, items[i], fn)
		}
	})
	return out
}

// runTask applies fn to one item, emitting a wall-clock task span on the
// sink and a latency observation into the metrics registry. With tracing
// off and metrics timing off it is a plain call plus one atomic counter
// add: no time reads.
//
//lint:walldomain task spans measure host execution; only trace/metrics outputs see them
func runTask[T, R any](sink *trace.Sink, worker, index int, item T, fn func(T) R) R {
	mTasks.Inc()
	if sink == nil && !metrics.TimingEnabled() {
		return fn(item)
	}
	begin := time.Now()
	r := fn(item)
	end := time.Now()
	if sink != nil {
		sink.Task(worker, index, begin, end)
	}
	mTaskMicros.Observe(end.Sub(begin).Microseconds())
	return r
}

// MapErr is Map with failure handling: fn receives a context that is
// cancelled as soon as any item fails, workers stop claiming new items once
// cancelled, and the lowest-indexed error observed is returned. On error
// the returned slice holds the results completed before cancellation.
func MapErr[T, R any](ctx context.Context, items []T, fn func(context.Context, T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	sink := trace.Active()
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		errIdx   = len(items)
		next     atomic.Int64
	)
	fanOut(len(items), func(w int, claimed func(int)) {
		for {
			if ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(items) {
				return
			}
			claimed(i + 1)
			r, err := runTaskErr(sink, w, i, ctx, items[i], fn)
			if err != nil {
				mu.Lock()
				if i < errIdx {
					firstErr, errIdx = err, i
				}
				mu.Unlock()
				cancel()
				return
			}
			out[i] = r
		}
	})
	if firstErr != nil {
		return out, firstErr
	}
	return out, parent.Err()
}

// runTaskErr is runTask for the error-propagating fan-out. Failed tasks
// still get a span: the trace shows where wall-clock time went either way.
//
//lint:walldomain task spans measure host execution; only trace/metrics outputs see them
func runTaskErr[T, R any](sink *trace.Sink, worker, index int, ctx context.Context, item T, fn func(context.Context, T) (R, error)) (R, error) {
	mTasks.Inc()
	if sink == nil && !metrics.TimingEnabled() {
		return fn(ctx, item)
	}
	begin := time.Now()
	r, err := fn(ctx, item)
	end := time.Now()
	if sink != nil {
		sink.Task(worker, index, begin, end)
	}
	mTaskMicros.Observe(end.Sub(begin).Microseconds())
	return r, err
}

// Shard is one contiguous half-open index range [Lo, Hi) of a flattened
// work grid. Sharding is pure arithmetic on (total, size): the same inputs
// always produce the same shard boundaries, which is what lets a resumed
// sweep line its checkpoint files up with a fresh run's shards.
type Shard struct {
	Index  int
	Lo, Hi int
}

// Len returns the number of grid points in the shard.
func (s Shard) Len() int { return s.Hi - s.Lo }

// Shards partitions [0, total) into consecutive ranges of at most size
// points (the last shard takes the remainder). size <= 0 yields a single
// shard covering everything; total <= 0 yields none.
func Shards(total, size int) []Shard {
	if total <= 0 {
		return nil
	}
	if size <= 0 || size > total {
		size = total
	}
	n := (total + size - 1) / size
	out := make([]Shard, 0, n)
	for lo := 0; lo < total; lo += size {
		out = append(out, Shard{Index: len(out), Lo: lo, Hi: min(lo+size, total)})
	}
	return out
}
