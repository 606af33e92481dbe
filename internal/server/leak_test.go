package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"verro"
	"verro/internal/scene"
	"verro/internal/store"
)

// This file holds verrod's lifecycle invariants at runtime: no goroutine,
// file descriptor, event log or per-job heap outlives the jobs that made
// it. TestChurnNoLeaks runs two phases over one live server. The
// open-files phase runs one job or refused admission of every shape that
// opens a file, with the garbage collector off, and counts descriptors
// before any collection: an *os.File dropped without Close stays open
// until a collection runs its finalizer, so a count taken after
// runtime.GC misses the leak. The churn then drives 200+ jobs with the
// collector on — sequential, concurrent, with SSE subscribers yanked
// mid-stream, and resumed from checkpoints — and asserts goroutines, file
// descriptors, the event-log registry and post-GC heap all return to the
// pre-churn baseline. `make test-leak` runs it alone; `make nightly`
// repeats it under the race detector.

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

// closeIdle closes the default client's idle connections, so the server
// ends of those connections close too.
func closeIdle() {
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// quiesce closes idle client connections and gives async teardown
// (connection goroutines, handler watchers) a bounded window to finish,
// polling until the goroutine count is back at or below base.
func quiesce(base int) {
	closeIdle()
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

// churner drives job shapes through a live server and counts the jobs
// that ran to a terminal state (resumed re-runs included).
type churner struct {
	t                *testing.T
	srv              *Server
	ts               *httptest.Server
	input, tracksCSV string
	ran              int
}

// submit admits one tracked job by path.
func (c *churner) submit(seed int64) *store.Manifest {
	c.t.Helper()
	m, code := postJob(c.t, c.ts, jobRequest{Input: c.input, Tracks: c.tracksCSV, Seed: seed, Window: 6})
	if code != http.StatusAccepted {
		c.t.Fatalf("POST = %d after %d jobs", code, c.ran)
	}
	c.ran++
	return m
}

// sequential runs n jobs one at a time, drained between jobs.
func (c *churner) sequential(n int, seed int64) {
	for i := 0; i < n; i++ {
		c.submit(seed + int64(i))
		c.srv.Wait()
	}
}

// concurrent fills every worker slot and drains, batches times over.
func (c *churner) concurrent(batches int, seed int64) {
	for batch := 0; batch < batches; batch++ {
		for slot := 0; slot < cap(c.srv.sem); slot++ {
			c.submit(seed + int64(batch))
		}
		c.srv.Wait()
	}
}

// yanked runs n jobs, each with an SSE client that connects and then
// disconnects while the job is live, exercising the handler's
// wake-on-context-done teardown.
func (c *churner) yanked(n int, seed int64) {
	t := c.t
	for i := 0; i < n; i++ {
		m := c.submit(seed + int64(i))
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", c.ts.URL+"/jobs/"+m.ID+"/events", nil)
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
		c.srv.Wait()
	}
}

// resume rewinds up to n finished manifests to the running state
// (checkpoint cleared: their staging was reaped on success) and lets
// ResumeInterrupted re-run them on the same process.
func (c *churner) resume(n int) {
	t := c.t
	ms, err := c.srv.cfg.Store.List()
	if err != nil {
		t.Fatal(err)
	}
	rewound := 0
	for _, m := range ms {
		if rewound == n {
			break
		}
		if m.State != store.StateDone {
			continue
		}
		m.State = store.StateRunning
		m.CheckpointFrames = 0
		if err := c.srv.cfg.Store.Save(m); err != nil {
			t.Fatal(err)
		}
		rewound++
	}
	resumed, err := c.srv.ResumeInterrupted()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != rewound {
		t.Fatalf("resumed %d jobs, rewound %d", resumed, rewound)
	}
	c.ran += resumed
	c.srv.Wait()
}

// churn drives 220 jobs through every lifecycle shape the server supports.
func churn(c *churner) {
	c.sequential(60, 1)
	c.concurrent(20, 100)
	c.yanked(40, 200)
	c.resume(40)
}

// openFiles runs, with the garbage collector off, one job or refused
// admission of each shape that opens a file: the churn's four shapes, an
// artifact download, an upload, an upload whose body fails mid-copy, an
// input with a bad header, an untracked job (detection and tracking spill
// the frames they inflate, and Reset rewinds over the spill) and a job
// that fails after its staging file opens. It then waits up to 5 s for
// the descriptor count to fall back to base. No collection runs before
// the count, so a file any of them dropped without Close is still open.
func openFiles(c *churner, base int) {
	t := c.t
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dir := t.TempDir()

	m := c.submit(300)
	c.srv.Wait()
	resp, err := http.Get(c.ts.URL + "/jobs/" + m.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.concurrent(1, 301)
	c.yanked(1, 302)
	c.resume(1)

	data, err := os.ReadFile(c.input)
	if err != nil {
		t.Fatal(err)
	}
	uploadURL := fmt.Sprintf("%s/jobs?window=6&tracks=%s", c.ts.URL, url.QueryEscape(c.tracksCSV))
	resp, err = http.Post(uploadURL, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload POST = %d", resp.StatusCode)
	}
	c.ran++
	c.srv.Wait()

	body := io.MultiReader(bytes.NewReader(data[:len(data)/2]), iotest.ErrReader(errors.New("client went away")))
	req := httptest.NewRequest("POST", uploadURL, body)
	req.Header.Set("Content-Type", "application/octet-stream")
	rec := httptest.NewRecorder()
	c.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "upload") {
		t.Fatalf("upload failing mid-copy = %d %s, want 400 naming the upload", rec.Code, rec.Body)
	}

	bad := filepath.Join(dir, "bad.vvf")
	if err := os.WriteFile(bad, []byte("not a vvf stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := postJob(t, c.ts, jobRequest{Input: bad, Tracks: c.tracksCSV, Window: 6}); code != http.StatusBadRequest {
		t.Fatalf("bad header = %d, want 400", code)
	}

	noTracks := filepath.Join(dir, "header-only.csv")
	if err := os.WriteFile(noTracks, []byte("frame,id,class,x,y,w,h\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tracks, state, errPart string
	}{
		{"", store.StateDone, ""},
		{noTracks, store.StateFailed, "no objects to sanitize"},
	} {
		m, code := postJob(t, c.ts, jobRequest{Input: c.input, Tracks: tc.tracks, Window: 6})
		if code != http.StatusAccepted {
			t.Fatalf("POST tracks=%q = %d", tc.tracks, code)
		}
		c.ran++
		c.srv.Wait()
		got, err := c.srv.cfg.Store.Load(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != tc.state || !strings.Contains(got.Error, tc.errPart) {
			t.Fatalf("job tracks=%q finished %s (%s), want %s (%s)", tc.tracks, got.State, got.Error, tc.state, tc.errPart)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		closeIdle()
		got, _ := countFDs()
		if got <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("file descriptors leaked: %d after the open-files phase (collector off), %d at baseline", got, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChurnNoLeaks is the acceptance harness for lifecycle soundness under
// load: after the open-files phase no file may be left open, and after
// 200+ jobs in every shape the process must hold no more goroutines, file
// descriptors, event logs, or (within allocator noise) heap than it did
// before the churn began.
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

	c := &churner{t: t, srv: srv, ts: ts, input: input, tracksCSV: tracksCSV}
	if fdOK {
		openFiles(c, baseFDs)
	}
	before := c.ran
	churn(c)
	if n := c.ran - before; n < 200 {
		t.Fatalf("churned only %d jobs, acceptance floor is 200", n)
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
