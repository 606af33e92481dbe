package server

import (
	"math"
	"net"
	"sync"
	"time"
)

// maxBuckets bounds the limiter's per-client state so an address-spoofing
// client cannot grow the map without limit. When the bound is hit, fully
// idle buckets (back at burst capacity, carrying no throttle state) are
// swept first; if none are idle the stalest bucket is evicted — for that
// client the next request starts a fresh bucket, which can only be more
// permissive, never less.
const maxBuckets = 4096

// rateLimiter is a per-client token bucket over POST /jobs: each client
// address accrues rate tokens per second up to burst, and a submission
// spends one. It exists for a different failure mode than the worker
// semaphore — the semaphore bounds how many jobs run, the limiter bounds
// how fast any one client may churn the admission path (manifest writes,
// upload staging, geometry probes), which is work a rejected job performs
// before the semaphore would ever turn it away.
//
// The clock is injected: verrolint's walltime analyzer reserves
// time.Now for internal/obs and internal/par, so the daemon passes it in
// at the edge (with the lint allow documented there) and tests pass a fake.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity; also a fresh client's opening balance
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time // when tokens was computed
}

func newRateLimiter(rate float64, burst int, now func() time.Time) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		now:     now,
		buckets: make(map[string]*bucket),
	}
}

// allow spends a token for the client if one is available. When it is not,
// allow reports how long the client must wait before a token accrues —
// the Retry-After the handler sends with the 429.
func (rl *rateLimiter) allow(key string) (ok bool, retryAfter time.Duration) {
	t := rl.now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b, found := rl.buckets[key]
	if !found {
		if len(rl.buckets) >= maxBuckets {
			rl.evictLocked(t)
		}
		b = &bucket{tokens: rl.burst, last: t}
		rl.buckets[key] = b
	} else {
		elapsed := t.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens = math.Min(rl.burst, b.tokens+elapsed*rl.rate)
		}
		b.last = t
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / rl.rate // seconds until one token accrues
	return false, time.Duration(math.Ceil(wait)) * time.Second
}

// evictLocked makes room for one more bucket: drop every fully idle bucket
// (refilled to burst, so removal loses no throttle state), and if that
// frees nothing, drop the bucket with the oldest timestamp.
func (rl *rateLimiter) evictLocked(t time.Time) {
	var (
		oldestKey string
		oldest    time.Time
		dropped   bool
	)
	for key, b := range rl.buckets {
		if b.tokens+t.Sub(b.last).Seconds()*rl.rate >= rl.burst {
			delete(rl.buckets, key)
			dropped = true
			continue
		}
		if oldestKey == "" || b.last.Before(oldest) {
			oldestKey, oldest = key, b.last
		}
	}
	if !dropped && oldestKey != "" {
		delete(rl.buckets, oldestKey)
	}
}

// clientKey buckets requests by remote host, ignoring the ephemeral port so
// one client cannot mint fresh buckets per connection.
func clientKey(remoteAddr string) string {
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil {
		return host
	}
	return remoteAddr
}
