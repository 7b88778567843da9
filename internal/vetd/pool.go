package vetd

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/defense"
	"repro/internal/dexir"
	"repro/internal/vetstore"
)

// ErrClosed is returned for requests arriving after shutdown began.
var ErrClosed = errors.New("vetd: server shutting down")

// ErrShed marks a request rejected at admission because the analysis
// queue was full; the HTTP layer turns it into 429 + Retry-After.
var ErrShed = errors.New("vetd: analysis queue full")

// call is one in-flight analysis, shared by its singleflight leader and
// every coalesced follower. verdict/err are written before done is
// closed, so waiters read them race-free after <-done.
type call struct {
	done    chan struct{}
	verdict defense.VetVerdict
	err     error
}

// job is one admitted analysis unit sitting in the bounded queue.
type job struct {
	hash string
	app  *dexir.App
	c    *call
}

// pool is the analysis plane: a bounded admission queue feeding a fixed
// set of workers (the serving-side analogue of experiment/sched's pool —
// bounded fan-out, panic-free tasks — but long-lived and fed by the
// network instead of a trial list), with singleflight coalescing so N
// concurrent requests for the same IR hash cost one defense.Vet.
//
// Overload contract: admission is a non-blocking reservation on the
// queue channel. When the queue is full the request is shed immediately
// (ErrShed → 429) instead of queuing without bound, so memory stays
// bounded and latency for admitted work stays within the deadline
// budget; waiting requests give up individually when their context
// expires while the analysis itself runs to completion and warms the
// cache (no thundering re-analysis after a timeout).
type pool struct {
	mu     sync.Mutex
	calls  map[string]*call
	queue  chan job
	closed bool

	cache   *Cache
	store   *vetstore.Store // optional persistence; nil disables
	metrics *Metrics
	analyze func(*dexir.App) (defense.VetVerdict, error)

	wg sync.WaitGroup
}

func newPool(workers, queueDepth int, cache *Cache, store *vetstore.Store, metrics *Metrics, analyze func(*dexir.App) (defense.VetVerdict, error)) *pool {
	p := &pool{
		calls:   make(map[string]*call),
		queue:   make(chan job, queueDepth),
		cache:   cache,
		store:   store,
		metrics: metrics,
		analyze: analyze,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// depth reports the instantaneous admission-queue depth.
func (p *pool) depth() int { return len(p.queue) }

// isClosed reports whether shutdown has begun (readiness probes flip to
// 503 the moment it has, so the router drains traffic before the last
// queued analyses finish).
func (p *pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// vet resolves one cache-missed request: join an in-flight analysis for
// the same hash, or admit a new one. It classifies the request on the
// caller's Metrics — exactly one of Hits (the late-hit re-check below),
// Misses (admitted or coalesced) or Sheds — and blocks until the verdict
// is ready or ctx expires. The bool result reports a late hit.
func (p *pool) vet(ctx context.Context, hash string, app *dexir.App) (defense.VetVerdict, bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return defense.VetVerdict{}, false, ErrClosed
	}
	c, inflight := p.calls[hash]
	if inflight {
		p.metrics.Misses.Add(1)
		p.metrics.Coalesced.Add(1)
		p.mu.Unlock()
	} else {
		// Late-hit re-check, under the same lock the workers use to
		// retire calls: an analysis of this hash may have completed
		// between the caller's cache lookup and now. Workers publish to
		// the cache before retiring the call, so a key absent from calls
		// with a finished analysis is guaranteed visible here — without
		// this, a retiring race would run a duplicate analysis for a
		// coalesced key.
		if v, ok := p.cache.Get(hash); ok {
			p.metrics.Hits.Add(1)
			p.mu.Unlock()
			return v, true, nil
		}
		c = &call{done: make(chan struct{})}
		select {
		case p.queue <- job{hash: hash, app: app, c: c}:
			p.calls[hash] = c
			p.metrics.Misses.Add(1)
			p.mu.Unlock()
		default:
			p.metrics.Sheds.Add(1)
			p.mu.Unlock()
			return defense.VetVerdict{}, false, ErrShed
		}
	}
	select {
	case <-c.done:
		return c.verdict, false, c.err
	case <-ctx.Done():
		p.metrics.Expired.Add(1)
		return defense.VetVerdict{}, false, ctx.Err()
	}
}

// worker drains the queue until close, publishing each verdict to the
// cache and to every waiter of its call.
func (p *pool) worker() {
	defer p.wg.Done()
	for jb := range p.queue {
		start := time.Now()
		v, err := p.analyze(jb.app)
		p.metrics.Analyses.Add(1)
		p.metrics.AnalyzeLatency.Observe(time.Since(start))
		if err == nil {
			p.cache.Put(jb.hash, v)
			// Persist before retiring the call: once a waiter has seen the
			// verdict, a crash-and-restart must serve the same bytes from
			// the store rather than re-analyzing. The fsync cost rides on
			// the analysis path only — cache and store hits never pay it.
			if p.store != nil {
				if serr := p.store.Put(jb.hash, v); serr != nil {
					p.metrics.StoreErrors.Add(1)
				}
			}
		}
		p.mu.Lock()
		delete(p.calls, jb.hash)
		p.mu.Unlock()
		jb.c.verdict, jb.c.err = v, err
		close(jb.c.done)
	}
}

// close stops admission and waits for queued analyses to finish; their
// waiters still receive results.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
}
