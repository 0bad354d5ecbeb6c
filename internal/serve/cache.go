package serve

import (
	"context"

	"igosim/internal/runner"
	"igosim/internal/stats"
)

// resultCache is the process-wide response cache: marshaled response
// bodies keyed by request fingerprint in a runner.Bounded (LRU with a
// doorkeeper, so a one-shot scan over thousands of distinct requests
// cannot flush the working set), whose single-flight lookup computes each
// fingerprint once across concurrent requests.
//
// Determinism: the cache stores exact marshaled bytes, and cached bytes
// are returned verbatim, so hit-vs-miss cannot change a response body.
// Whether a given lookup hits IS wall-domain (it depends on arrival order
// and capacity), which is why cache status travels in a response header
// and the counters live in the Wall metric domain.
type resultCache struct {
	results *runner.Bounded[string, result]
	limiter *runner.Limiter
}

// result is one computation's outcome: a body, or an error that its
// flight's waiters share but the cache never admits.
type result struct {
	body []byte
	err  *Error
}

func newResultCache(capacity int, counters *stats.CacheCounters, limiter *runner.Limiter) *resultCache {
	c := &resultCache{
		results: runner.NewBounded[string, result](capacity, counters),
		limiter: limiter,
	}
	counters.SetSizer(c.results.Len)
	return c
}

// Len returns the number of admitted entries.
func (c *resultCache) Len() int { return c.results.Len() }

// Reset drops every admitted entry and the doorkeeper's memory. In-flight
// computations are left to finish; their results are admitted per the
// usual policy into the now-empty cache.
func (c *resultCache) Reset() { c.results.Reset() }

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
	r, wait, lead := c.results.Lookup(key)
	if wait == nil {
		return r.body, StatusHit, nil
	}
	status = StatusCoalesced
	if lead {
		// The leader computes on a detached goroutine so that the
		// computation — and the cache admission that follows — survives
		// the leader's client hanging up. Waiters (and the leader itself)
		// bail out on their own contexts; the result still lands.
		status = StatusMiss
		go c.run(key, compute)
	}
	select {
	case r := <-wait:
		return r.body, status, r.err
	case <-ctx.Done():
		return nil, status, &Error{Code: CodeDeadline, Message: ctx.Err().Error()}
	}
}

// run executes one computation and finishes its flight, admitting the
// body unless the computation failed.
func (c *resultCache) run(key string, compute func() ([]byte, *Error)) {
	var r result
	// The limiter bounds concurrent *simulations* across requests;
	// detached from any client context, so admission never aborts.
	if err := c.limiter.Acquire(context.Background()); err == nil {
		r.body, r.err = compute()
		c.limiter.Release()
	} else {
		r.err = &Error{Code: CodeShuttingDown, Message: err.Error()}
	}
	c.results.Finish(key, r, r.err == nil)
}
