package serve

import (
	"context"
	"sync"

	"igosim/internal/runner"
	"igosim/internal/stats"
)

// resultCache is the process-wide response cache: marshaled response
// bodies keyed by request fingerprint in a runner.Bounded (LRU with a
// doorkeeper, so a one-shot scan over thousands of distinct requests
// cannot flush the working set), plus singleflight deduplication of
// in-flight computations.
//
// Determinism: the cache stores exact marshaled bytes, and cached bytes
// are returned verbatim, so hit-vs-miss cannot change a response body.
// Whether a given lookup hits IS wall-domain (it depends on arrival order
// and capacity), which is why cache status travels in a response header
// and the counters live in the Wall metric domain.
type resultCache struct {
	bodies   *runner.Bounded[string, []byte]
	mu       sync.Mutex // guards inflight
	inflight map[string]*call
	counters *stats.CacheCounters
	limiter  *runner.Limiter
}

// call is one in-flight computation; waiters block on done.
type call struct {
	done chan struct{}
	body []byte
	err  *Error
}

func newResultCache(capacity int, counters *stats.CacheCounters, limiter *runner.Limiter) *resultCache {
	c := &resultCache{
		bodies:   runner.NewBounded[string, []byte](capacity, counters),
		inflight: make(map[string]*call),
		counters: counters,
		limiter:  limiter,
	}
	counters.SetSizer(c.bodies.Len)
	return c
}

// Len returns the number of admitted entries.
func (c *resultCache) Len() int { return c.bodies.Len() }

// Reset drops every admitted entry and the doorkeeper's memory. In-flight
// computations are left to finish; their results are admitted per the
// usual policy into the now-empty cache.
func (c *resultCache) Reset() { c.bodies.Reset() }

// Status values for the X-Igosim-Cache response header.
const (
	StatusHit       = "hit"
	StatusMiss      = "miss"
	StatusCoalesced = "coalesced"
)

// Get returns the cached body for key, computing it at most once across
// concurrent callers. compute runs detached from ctx: a caller
// disconnecting mid-computation (context canceled) abandons its wait but
// the computation finishes and populates the cache, so the work is never
// wasted. The returned status is one of the Status* constants.
func (c *resultCache) Get(ctx context.Context, key string, compute func() ([]byte, *Error)) (body []byte, status string, err *Error) {
	// c.mu orders the lookup against run's admit-then-unregister, so a key
	// is always either in flight, resident, or neither — never counted as
	// both a miss and a coalesced wait.
	c.mu.Lock()
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.counters.Coalesced()
		return c.wait(ctx, cl, StatusCoalesced)
	}
	if body, ok := c.bodies.Get(key); ok {
		c.mu.Unlock()
		return body, StatusHit, nil
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	// The leader computes on a detached goroutine so that the computation —
	// and the cache admission that follows — survives the leader's client
	// hanging up. Waiters (and the leader itself) bail out on their own
	// contexts; the result still lands.
	go c.run(key, cl, compute)
	return c.wait(ctx, cl, StatusMiss)
}

// run executes one computation and publishes its result.
func (c *resultCache) run(key string, cl *call, compute func() ([]byte, *Error)) {
	// The limiter bounds concurrent *simulations* across requests;
	// detached from any client context, so admission never aborts.
	if err := c.limiter.Acquire(context.Background()); err == nil {
		cl.body, cl.err = compute()
		c.limiter.Release()
	} else {
		cl.err = &Error{Code: CodeShuttingDown, Message: err.Error()}
	}
	c.mu.Lock()
	if cl.err == nil {
		c.bodies.Put(key, cl.body)
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(cl.done)
}

// wait blocks until the call completes or ctx is done.
func (c *resultCache) wait(ctx context.Context, cl *call, status string) ([]byte, string, *Error) {
	select {
	case <-cl.done:
		return cl.body, status, cl.err
	case <-ctx.Done():
		return nil, status, &Error{Code: CodeDeadline, Message: ctx.Err().Error()}
	}
}
