// Package par is the deterministic worker pool under VERRO's hot
// computer-vision loops. Every parallel construct here is *scheduling-only*
// parallelism: work is sharded over contiguous index ranges, workers write
// disjoint outputs, and all randomness stays on the caller (the
// coordinator-draws-RNG rule of DESIGN.md), so the result of any converted
// loop is bit-identical whether it runs on one worker or many. That
// invariant is what lets the seeded experiment harness keep its
// reproducibility guarantees while the pipeline saturates the machine.
//
// Product runs size every pool by runtime.GOMAXPROCS(0), read at each
// call: they pass NewPool(0). A positive n fixes the size, which only
// tests and benchmarks use, to compare pools of given sizes inside one
// process. Pools are scoped handles threaded through a call tree, so
// concurrent pipeline runs never share state. The package-level Map runs
// on a default pool sized like NewPool(0).
//
// Every pool keeps utilization statistics — For calls, chunks dispatched,
// cumulative busy time per worker slot — that the observability layer
// (internal/obs) samples into trace reports. Recording happens once per
// chunk, so the bookkeeping cost is invisible next to the chunk work
// itself.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a scoped worker-pool handle: it fixes the worker count for every
// For/Map issued through it and accumulates utilization statistics. A nil
// *Pool is valid and means "the default pool" — callers can thread an
// optional pool without nil checks. Pools are safe for concurrent use.
type Pool struct {
	// workers is the fixed size; <= 0 means runtime.GOMAXPROCS(0).
	workers int

	mu     sync.Mutex
	calls  int64
	chunks int64
	busy   []time.Duration
}

// defaultPool backs the package-level Map and any nil *Pool receiver.
var defaultPool = &Pool{}

// NewPool returns a pool fixed at n workers; n <= 0 sizes to
// runtime.GOMAXPROCS(0) at each call, so NewPool(0), which product runs
// pass, is a stats-isolated handle with default sizing.
func NewPool(n int) *Pool {
	if n < 0 {
		n = 0
	}
	return &Pool{workers: n}
}

// Workers reports the pool's worker count: runtime.GOMAXPROCS(0) for nil
// or auto-sized pools.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

// Stats is a snapshot of a pool's lifetime utilization counters.
type Stats struct {
	// Workers is the pool size at snapshot time.
	Workers int
	// Calls counts For/Map invocations (including serial fast paths).
	Calls int64
	// Chunks counts dispatched chunks; empty chunks are never dispatched.
	Chunks int64
	// Busy is the cumulative time each worker slot spent inside fn. Slot 0
	// also accumulates the serial fast path.
	Busy []time.Duration
}

// BusyTotal sums the per-worker busy time.
func (s Stats) BusyTotal() time.Duration {
	var t time.Duration
	for _, d := range s.Busy {
		t += d
	}
	return t
}

// Stats snapshots the pool's utilization counters (the default pool's for a
// nil receiver).
func (p *Pool) Stats() Stats {
	if p == nil {
		p = defaultPool
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Workers: p.Workers(),
		Calls:   p.calls,
		Chunks:  p.chunks,
		Busy:    append([]time.Duration(nil), p.busy...),
	}
}

// record accumulates one executed chunk on worker slot w.
func (p *Pool) record(w int, d time.Duration) {
	p.mu.Lock()
	p.chunks++
	for w >= len(p.busy) {
		p.busy = append(p.busy, 0)
	}
	p.busy[w] += d
	p.mu.Unlock()
}

func (p *Pool) addCall() {
	p.mu.Lock()
	p.calls++
	p.mu.Unlock()
}

// For runs fn over [0, n) split into contiguous chunks of at least grain
// indices, at most one chunk in flight per worker. fn(lo, hi) must touch
// only state derivable from its index range (shared inputs read-only,
// outputs disjoint per index); under that contract the aggregate effect is
// identical to fn(0, n). grain < 1 is treated as 1. Every dispatched chunk
// is non-empty: lo < hi <= n always holds inside fn. A panic inside fn is
// re-raised on the caller; when several chunks panic, the one covering the
// lowest index range wins, so failures are deterministic too.
func (p *Pool) For(n, grain int, fn func(lo, hi int)) {
	if p == nil {
		p = defaultPool
	}
	if n <= 0 {
		return
	}
	p.addCall()
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	workers := p.Workers()
	if chunks > workers {
		chunks = workers
	}
	if chunks > 1 {
		// Recompute the chunk count from the final chunk size: with
		// size = ceil(n/chunks), the first ceil(n/size) chunks already cover
		// [0, n), and any trailing chunk would start at lo >= n (e.g. n=10
		// over 8 workers gives size=2 and only 5 real chunks). Dispatching
		// those empty chunks used to call fn with an inverted range.
		size := (n + chunks - 1) / chunks
		chunks = (n + size - 1) / size
		if chunks > 1 {
			p.forChunks(n, size, chunks, fn)
			return
		}
	}
	start := time.Now()
	fn(0, n)
	p.record(0, time.Since(start))
}

// forChunks dispatches chunks [c*size, min((c+1)*size, n)) for c in
// [0, chunks) over chunks goroutines.
func (p *Pool) forChunks(n, size, chunks int, fn func(lo, hi int)) {
	type failure struct {
		chunk int
		value any
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first *failure
	)
	run := func(w, c int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if first == nil || c < first.chunk {
					first = &failure{chunk: c, value: r}
				}
				mu.Unlock()
			}
		}()
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		start := time.Now()
		fn(lo, hi)
		p.record(w, time.Since(start))
	}
	wg.Add(chunks)
	for w := 0; w < chunks; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				run(w, c)
			}
		}(w)
	}
	// The chunk-claim counter hands each goroutine exactly one chunk here
	// (chunks == goroutines), but the loop shape keeps the scheduler honest
	// if the two ever diverge.
	wg.Wait()
	if first != nil {
		panic(first.value)
	}
}

// MapPool computes out[i] = fn(i) for i in [0, n) on pool p (nil = default
// pool) with the same sharding and determinism contract as For: fn must be
// pure with respect to shared state, and the gathered slice is
// index-ordered regardless of scheduling.
func MapPool[T any](p *Pool, n, grain int, fn func(i int) T) []T {
	out := make([]T, n)
	p.For(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(i)
		}
	})
	return out
}

// Map runs MapPool on the default pool.
func Map[T any](n, grain int, fn func(i int) T) []T {
	return MapPool[T](nil, n, grain, fn)
}
