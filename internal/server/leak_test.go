package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"verro"
	"verro/internal/scene"
	"verro/internal/store"
)

// This file is the runtime half of the lifecycle story: verrolint's
// lifecycle suite (goleak, mustclose) proves termination and release
// obligations on the CFG; lock discipline and request cancellation have no
// static check and rest on this harness and the race gates. It churns real
// jobs through the live server — sequential,
// concurrent, with SSE subscribers yanked mid-stream, and resumed from
// checkpoints — then asserts goroutines, file descriptors, and post-GC heap
// all return to the pre-churn baseline. `make test-leak` runs it alone;
// `make nightly` repeats it under the race detector.

// tinyFixture writes the smallest clip the pipeline meaningfully windows:
// two render windows per pass, so resume and SSE progress still exercise
// their paths while a full job stays cheap enough to run hundreds of times.
func tinyFixture(t *testing.T, dir string) (input, tracksCSV string) {
	t.Helper()
	p := scene.Preset{
		Name: "leak", W: 48, H: 36, Frames: 12, Objects: 2,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 23,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	input = dir + "/input.vvf"
	if _, err := verro.WriteVideo(input, g.Video); err != nil {
		t.Fatal(err)
	}
	tracksCSV = dir + "/tracks.csv"
	if err := g.Truth.SaveCSV(tracksCSV); err != nil {
		t.Fatal(err)
	}
	return input, tracksCSV
}

// countFDs reports the process's open file descriptors via /proc/self/fd;
// ok is false where that view does not exist (non-Linux).
func countFDs() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	// The ReadDir call itself holds one fd on the directory.
	return len(ents) - 1, true
}

// quiesce closes idle client connections and gives async teardown
// (connection goroutines, handler watchers) a bounded window to finish,
// polling until the goroutine count is back at or below base.
func quiesce(base int) {
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// heapInUse reports live heap bytes after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// churn drives totalJobs admissions through every lifecycle shape the
// server supports and returns how many jobs actually ran to a terminal
// state (resumed re-runs included).
func churn(t *testing.T, srv *Server, ts *httptest.Server, input, tracksCSV string) int {
	t.Helper()
	ran := 0
	submit := func(seed int64) *store.Manifest {
		t.Helper()
		m, code := postJob(t, ts, jobRequest{Input: input, Tracks: tracksCSV, Seed: seed, Window: 6})
		if code != http.StatusAccepted {
			t.Fatalf("POST = %d after %d jobs", code, ran)
		}
		ran++
		return m
	}

	// Phase 1: sequential — one job at a time, drained between jobs.
	for i := 0; i < 60; i++ {
		submit(int64(i + 1))
		srv.Wait()
	}

	// Phase 2: concurrent — fill every worker slot, drain, repeat.
	for batch := 0; batch < 20; batch++ {
		for slot := 0; slot < cap(srv.sem); slot++ {
			submit(int64(100 + batch))
		}
		srv.Wait()
	}

	// Phase 3: subscribers cancelled mid-stream — each job gets an SSE
	// client that connects and then disconnects while the job is live,
	// exercising the handler's wake-on-context-done teardown.
	for i := 0; i < 40; i++ {
		m := submit(int64(200 + i))
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/jobs/"+m.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		resp.Body.Read(buf) // at most one read, then yank the client
		cancel()
		resp.Body.Close()
		srv.Wait()
	}

	// Phase 4: resume churn — rewind finished manifests to the running
	// state (checkpoint cleared: their staging was reaped on success) and
	// let ResumeInterrupted re-run them on the same process.
	ms, err := srv.cfg.Store.List()
	if err != nil {
		t.Fatal(err)
	}
	rewound := 0
	for _, m := range ms {
		if rewound == 40 {
			break
		}
		if m.State != store.StateDone {
			continue
		}
		m.State = store.StateRunning
		m.CheckpointFrames = 0
		if err := srv.cfg.Store.Save(m); err != nil {
			t.Fatal(err)
		}
		rewound++
	}
	n, err := srv.ResumeInterrupted()
	if err != nil {
		t.Fatal(err)
	}
	if n != rewound {
		t.Fatalf("resumed %d jobs, rewound %d", n, rewound)
	}
	ran += n
	srv.Wait()
	return ran
}

// TestChurnNoLeaks is the acceptance harness for lifecycle soundness under
// load: after 200+ jobs in every shape, the process must hold no more
// goroutines, file descriptors, event logs, or (within allocator noise)
// heap than it did before the churn began.
func TestChurnNoLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("job-churn leak harness; run explicitly via make test-leak")
	}
	input, tracksCSV := tinyFixture(t, t.TempDir())
	srv, ts := newTestServer(t, t.TempDir(), 4)

	// Warm-up: one full job and one completed SSE read populate every lazy
	// singleton (connection pools, store directories) before the baseline.
	m, code := postJob(t, ts, jobRequest{Input: input, Tracks: tracksCSV, Window: 6})
	if code != http.StatusAccepted {
		t.Fatalf("warm-up POST = %d", code)
	}
	srv.Wait()
	resp, err := http.Get(ts.URL + "/jobs/" + m.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	readSSE(t, resp.Body)
	resp.Body.Close()

	quiesce(0)
	baseGoroutines := runtime.NumGoroutine()
	baseFDs, fdOK := countFDs()
	baseHeap := heapInUse()

	ran := churn(t, srv, ts, input, tracksCSV)
	if ran < 200 {
		t.Fatalf("churned only %d jobs, acceptance floor is 200", ran)
	}

	quiesce(baseGoroutines)
	if got := runtime.NumGoroutine(); got > baseGoroutines {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d after churn, %d at baseline\n%s",
			got, baseGoroutines, buf[:runtime.Stack(buf, true)])
	}
	if fdOK {
		got, _ := countFDs()
		if got > baseFDs {
			t.Fatalf("file descriptors leaked: %d after churn, %d at baseline", got, baseFDs)
		}
	}
	if n := logCount(srv); n != 0 {
		t.Fatalf("%d event logs still registered after churn", n)
	}
	// Heap is the coarse tripwire: allocator noise is real, but the class
	// of bug this guards (per-job state retained forever) grows linearly
	// in jobs and clears this margin within a few dozen.
	if got := heapInUse(); got > baseHeap+(8<<20) {
		t.Fatalf("heap grew %d bytes over baseline (%d -> %d)", got-baseHeap, baseHeap, got)
	}
}
