package par

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestWorkersResolutionOrder pins the two sizing sources: NewPool(n) with
// n > 0 is n workers; nil, NewPool(0) and negative sizes follow
// runtime.GOMAXPROCS, read at each call.
func TestWorkersResolutionOrder(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	if got := NewPool(7).Workers(); got != 7 {
		t.Fatalf("NewPool(7).Workers() = %d, want 7", got)
	}
	auto := NewPool(0)
	for i, p := range []*Pool{nil, auto, NewPool(-3)} {
		if got := p.Workers(); got != 3 {
			t.Fatalf("pool %d (nil, NewPool(0), NewPool(-3)): Workers() = %d at GOMAXPROCS 3, want 3", i, got)
		}
	}
	runtime.GOMAXPROCS(5)
	if got := auto.Workers(); got != 5 {
		t.Fatalf("auto pool Workers() = %d after GOMAXPROCS 5, want 5", got)
	}
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 32} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 100} {
				hits := make([]int32, n)
				NewPool(workers).For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times",
							workers, n, grain, i, h)
					}
				}
			}
		}
	}
}

// TestForNeverDispatchesEmptyChunks is the regression test for the
// trailing-chunk bug: size = ceil(n/chunks) is computed after clamping
// chunks to the worker count, so combinations like n=10, grain=1, workers=8
// (size=2, only 5 real chunks) used to dispatch fn(10, 10) and even
// fn(14, 10). Sweep small n × worker × grain combinations and require every
// chunk to be non-empty, in-range, and to cover each index exactly once.
func TestForNeverDispatchesEmptyChunks(t *testing.T) {
	for workers := 1; workers <= 12; workers++ {
		for n := 1; n <= 40; n++ {
			for grain := 1; grain <= 3; grain++ {
				hits := make([]int32, n)
				NewPool(workers).For(n, grain, func(lo, hi int) {
					if lo >= hi {
						t.Errorf("workers=%d n=%d grain=%d: empty chunk [%d,%d) dispatched",
							workers, n, grain, lo, hi)
						return
					}
					if lo < 0 || hi > n {
						t.Errorf("workers=%d n=%d grain=%d: out-of-range chunk [%d,%d)",
							workers, n, grain, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times",
							workers, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestPoolScopedWorkers(t *testing.T) {
	// A fixed-size pool ignores GOMAXPROCS entirely and dispatches at most
	// its own worker count of chunks per call.
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(8)
	if p.Workers() != 8 {
		t.Fatalf("fixed pool Workers() = %d, want 8", p.Workers())
	}
	p.For(100, 1, func(lo, hi int) {})
	if st := p.Stats(); st.Chunks != 8 || st.Workers != 8 {
		t.Fatalf("fixed pool dispatched %d chunks at %d workers, want 8 at 8", st.Chunks, st.Workers)
	}
}

func TestPoolForMatchesSerial(t *testing.T) {
	fn := func(i int) int { return 7*i + 1 }
	want := make([]int, 100)
	for i := range want {
		want[i] = fn(i)
	}
	for _, n := range []int{1, 2, 4, 16} {
		p := NewPool(n)
		got := MapPool(p, len(want), 1, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pool(%d): Map[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

// TestConcurrentPools proves pools are independent: pools with different
// sizes running concurrently neither interfere with each other nor drift
// from their own size.
func TestConcurrentPools(t *testing.T) {
	var wg sync.WaitGroup
	for _, size := range []int{1, 2, 8, 16} {
		wg.Add(1)
		go func(size int) {
			defer wg.Done()
			p := NewPool(size)
			for rep := 0; rep < 20; rep++ {
				var sum atomic.Int64
				p.For(500, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sum.Add(int64(i))
					}
				})
				if sum.Load() != 500*499/2 {
					t.Errorf("pool(%d): sum = %d", size, sum.Load())
					return
				}
				if p.Workers() != size {
					t.Errorf("pool(%d): Workers() drifted to %d", size, p.Workers())
					return
				}
			}
		}(size)
	}
	wg.Wait()
}

func TestPoolStats(t *testing.T) {
	p := NewPool(4)
	p.For(100, 1, func(lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += i
		}
	})
	p.For(1, 1, func(lo, hi int) {}) // serial fast path
	st := p.Stats()
	if st.Workers != 4 {
		t.Errorf("Stats.Workers = %d, want 4", st.Workers)
	}
	if st.Calls != 2 {
		t.Errorf("Stats.Calls = %d, want 2", st.Calls)
	}
	// 4 parallel chunks + 1 serial chunk.
	if st.Chunks != 5 {
		t.Errorf("Stats.Chunks = %d, want 5", st.Chunks)
	}
	if len(st.Busy) == 0 || len(st.Busy) > 4 {
		t.Errorf("Stats.Busy has %d slots, want 1..4", len(st.Busy))
	}
	if st.BusyTotal() < 0 {
		t.Errorf("BusyTotal = %v", st.BusyTotal())
	}
	// n <= 0 must not count as a call.
	p.For(0, 1, func(lo, hi int) { t.Error("fn called for n=0") })
	if got := p.Stats().Calls; got != 2 {
		t.Errorf("Calls after For(0) = %d, want 2", got)
	}
}

func TestForRespectsGrain(t *testing.T) {
	// With grain >= n the loop must run as a single serial chunk.
	var calls atomic.Int32
	NewPool(8).For(10, 100, func(lo, hi int) {
		calls.Add(1)
		if lo != 0 || hi != 10 {
			t.Errorf("expected one chunk [0,10), got [%d,%d)", lo, hi)
		}
	})
	if calls.Load() != 1 {
		t.Fatalf("grain>=n produced %d chunks, want 1", calls.Load())
	}
}

func TestMapMatchesSerialReference(t *testing.T) {
	fn := func(i int) int { return i*i - 3*i }
	want := make([]int, 257)
	for i := range want {
		want[i] = fn(i)
	}
	for _, workers := range []int{1, 2, 8, 32} {
		got := MapPool(NewPool(workers), len(want), 1, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: Map[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMapEquivalenceProperty is the package's core property: for random
// shapes, worker counts, and grains, Map is indistinguishable from the
// serial loop.
func TestMapEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, rawN, rawGrain, rawWorkers uint8) bool {
		n := int(rawN)
		grain := int(rawGrain)%32 + 1
		workers := int(rawWorkers)%16 + 1
		rng := rand.New(rand.NewSource(seed))
		table := make([]float64, n)
		for i := range table {
			table[i] = rng.NormFloat64()
		}
		fn := func(i int) float64 { return table[i]*float64(i) + 0.5 }
		serial := make([]float64, n)
		for i := range serial {
			serial[i] = fn(i)
		}
		got := MapPool(NewPool(workers), n, grain, fn)
		for i := range serial {
			if got[i] != serial[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	NewPool(4).For(100, 1, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
	t.Fatal("For must re-raise the worker panic")
}

func TestForOversubscription(t *testing.T) {
	// Far more workers than indices or cores: still exactly-once coverage.
	var sum atomic.Int64
	NewPool(64).For(1000, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if sum.Load() != 1000*999/2 {
		t.Fatalf("sum = %d, want %d", sum.Load(), 1000*999/2)
	}
}

func TestNestedFor(t *testing.T) {
	// Converted paths nest (frame-level Map around window-level For); the
	// pool must stay correct when workers spawn their own parallel loops.
	p := NewPool(4)
	outer := MapPool(p, 8, 1, func(i int) int {
		var s atomic.Int64
		p.For(100, 10, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				s.Add(int64(j))
			}
		})
		return int(s.Load()) + i
	})
	for i, v := range outer {
		if v != 100*99/2+i {
			t.Fatalf("nested result[%d] = %d", i, v)
		}
	}
}

func BenchmarkForOverhead(b *testing.B) {
	work := make([]float64, 1<<16)
	for i := range work {
		work[i] = float64(i)
	}
	for i := 0; i < b.N; i++ {
		defaultPool.For(len(work), 4096, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				work[j] = work[j]*1.000001 + 1
			}
		})
	}
}
