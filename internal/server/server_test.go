package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"verro"
	"verro/internal/ldp"
	"verro/internal/scene"
	"verro/internal/store"
)

// fixture writes a small benchmark clip and its ground-truth tracks into
// dir. 36 frames with a window of 9 gives four render windows — enough to
// cut a resume in the middle.
func fixture(t *testing.T, dir string) (input, tracksCSV string) {
	t.Helper()
	return writeFixture(t, dir, scene.Preset{
		Name: "srv", W: 96, H: 72, Frames: 36, Objects: 4,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 17,
	})
}

// panFixture is a clip of fixture's size shot by a moving camera that
// pans 24 columns over the 36 frames, about one column a frame at its
// fastest.
func panFixture(t *testing.T, dir string) (input, tracksCSV string) {
	t.Helper()
	return writeFixture(t, dir, scene.Preset{
		Name: "srv-pan", W: 96, H: 72, Frames: 36, Objects: 4,
		FPS: 30, Moving: true, PanRange: 24, Style: scene.StyleStreet, Class: scene.Pedestrian, Seed: 17,
	})
}

// writeFixture renders p into dir as a .vvf clip and its ground-truth
// tracks.
func writeFixture(t *testing.T, dir string, p scene.Preset) (input, tracksCSV string) {
	t.Helper()
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	input = filepath.Join(dir, "input.vvf")
	if _, err := verro.WriteVideo(input, g.Video); err != nil {
		t.Fatal(err)
	}
	tracksCSV = filepath.Join(dir, "tracks.csv")
	if err := g.Truth.SaveCSV(tracksCSV); err != nil {
		t.Fatal(err)
	}
	return input, tracksCSV
}

// cliEquivalent runs the same sanitization the CLI's -window path would and
// returns the output bytes — the reference every server artifact must match
// byte for byte.
func cliEquivalent(t *testing.T, input, tracksCSV string, f float64, seed int64, window int) []byte {
	t.Helper()
	src, err := verro.OpenVideoSource(input)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	tracks, err := verro.LoadTracks(tracksCSV)
	if err != nil {
		t.Fatal(err)
	}
	cfg := verro.DefaultConfig()
	cfg.Phase1.F = f
	cfg.Seed = seed
	cfg.WindowFrames = window
	out := filepath.Join(t.TempDir(), "ref.vvf")
	sink, err := verro.NewVideoSink(out, verro.StreamOutputMeta(src.Meta()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verro.SanitizeStream(src, tracks, cfg, sink); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t *testing.T, root string, maxJobs int) (*Server, *httptest.Server) {
	t.Helper()
	fs, err := store.NewFS(root)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: fs, MaxJobs: maxJobs, Window: 9})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, req jobRequest) (*store.Manifest, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var m store.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return &m, resp.StatusCode
}

func getManifest(t *testing.T, ts *httptest.Server, id string) (*store.Manifest, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var m store.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return &m, resp.StatusCode
}

func TestJobLifecycle(t *testing.T) {
	input, tracksCSV := fixture(t, t.TempDir())
	root := t.TempDir()
	srv, ts := newTestServer(t, root, 2)

	m, code := postJob(t, ts, jobRequest{Input: input, Tracks: tracksCSV, F: 0.1, Seed: 5, Window: 9})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	if m.ID != "job-000001" || m.State != store.StateRunning || m.Frames != 36 {
		t.Fatalf("admission manifest: %+v", m)
	}
	srv.Wait()

	got, code := getManifest(t, ts, m.ID)
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d", m.ID, code)
	}
	if got.State != store.StateDone {
		t.Fatalf("job finished %s (%s), want done", got.State, got.Error)
	}
	if got.CheckpointFrames != 36 || got.Epsilon <= 0 || len(got.Ledger) != 4 {
		t.Fatalf("outcome: checkpoint=%d eps=%v ledger=%d", got.CheckpointFrames, got.Epsilon, len(got.Ledger))
	}

	resp, err := http.Get(ts.URL + "/jobs/" + m.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET output: %d %v", resp.StatusCode, err)
	}
	want := cliEquivalent(t, input, tracksCSV, 0.1, 5, 9)
	if !bytes.Equal(artifact, want) {
		t.Fatalf("served artifact (%d bytes) differs from the CLI-equivalent output (%d bytes)", len(artifact), len(want))
	}

	if _, err := os.Stat(filepath.Join(root, m.ID, "staging.raw")); !os.IsNotExist(err) {
		t.Fatalf("staging file survived a completed job: %v", err)
	}

	listResp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []*store.Manifest
	err = json.NewDecoder(listResp.Body).Decode(&list)
	listResp.Body.Close()
	if err != nil || len(list) != 1 || list[0].ID != m.ID {
		t.Fatalf("GET /jobs: %v (%d entries)", err, len(list))
	}

	if _, code := getManifest(t, ts, "job-999999"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}
}

// TestAdmissionControl: with every worker slot pinned, a new POST is
// rejected with 429 and leaves no trace; once a slot frees, submission
// works again.
func TestAdmissionControl(t *testing.T) {
	input, tracksCSV := fixture(t, t.TempDir())
	srv, ts := newTestServer(t, t.TempDir(), 1)
	hold := make(chan struct{})
	srv.holdStart = hold

	m1, code := postJob(t, ts, jobRequest{Input: input, Tracks: tracksCSV, Window: 9})
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d", code)
	}
	if _, code := postJob(t, ts, jobRequest{Input: input, Tracks: tracksCSV, Window: 9}); code != http.StatusTooManyRequests {
		t.Fatalf("POST above the job limit = %d, want 429", code)
	}

	close(hold)
	srv.Wait()
	if got, _ := getManifest(t, ts, m1.ID); got.State != store.StateDone {
		t.Fatalf("held job finished %s (%s)", got.State, got.Error)
	}
	m3, code := postJob(t, ts, jobRequest{Input: input, Tracks: tracksCSV, Window: 9})
	if code != http.StatusAccepted {
		t.Fatalf("POST after a slot freed = %d", code)
	}
	srv.Wait()
	if got, _ := getManifest(t, ts, m3.ID); got.State != store.StateDone {
		t.Fatalf("post-429 job finished %s (%s)", got.State, got.Error)
	}
	// The rejected submission must not have burned a manifest.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []*store.Manifest
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list) != 2 {
		t.Fatalf("job list after a 429: %v (%d entries, want 2)", err, len(list))
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    string
	event string
	data  string
}

func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var (
		out []sseEvent
		cur sseEvent
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
			}
			if cur.event == "end" {
				return out
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = line[4:]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		}
	}
	t.Fatalf("SSE stream ended without an end event (%d events)", len(out))
	return nil
}

// TestEventsMonotonicWindowProgress: an SSE subscriber sees the render
// windows open in strictly increasing clip order, and the stream terminates
// with an end event carrying the final state.
func TestEventsMonotonicWindowProgress(t *testing.T) {
	input, tracksCSV := fixture(t, t.TempDir())
	srv, ts := newTestServer(t, t.TempDir(), 1)
	m, code := postJob(t, ts, jobRequest{Input: input, Tracks: tracksCSV, Seed: 3, Window: 9})
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + m.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, resp.Body)
	srv.Wait()

	// The pipeline walks the clip once per pass (analysis, then phase2
	// rendering); within each pass the window spans must open in strictly
	// increasing clip order.
	last := map[string]int{}
	windows := map[string]int{}
	for _, e := range events {
		if e.event != "span_start" {
			continue
		}
		var ev struct {
			Span   string `json:"span"`
			Parent string `json:"parent"`
		}
		if err := json.Unmarshal([]byte(e.data), &ev); err != nil {
			t.Fatalf("bad event data %q: %v", e.data, err)
		}
		if !strings.HasPrefix(ev.Span, "window@") {
			continue
		}
		at, err := strconv.Atoi(strings.TrimPrefix(ev.Span, "window@"))
		if err != nil {
			t.Fatalf("window span %q", ev.Span)
		}
		if prev, seen := last[ev.Parent]; seen && at <= prev {
			t.Fatalf("%s window progress went backwards: %d after %d", ev.Parent, at, prev)
		}
		last[ev.Parent] = at
		windows[ev.Parent]++
	}
	for _, pass := range []string{"analysis", "phase2"} {
		if windows[pass] != 4 {
			t.Fatalf("saw %d %s window spans, want 4 (all: %v)", windows[pass], pass, windows)
		}
	}
	end := events[len(events)-1]
	if end.event != "end" || !strings.Contains(end.data, `"done"`) {
		t.Fatalf("terminal event: %+v", end)
	}

	// A reconnect with Last-Event-ID replays only the suffix.
	req, err := http.NewRequest("GET", ts.URL+"/jobs/"+m.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", events[len(events)-2].id)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail := readSSE(t, resp2.Body)
	resp2.Body.Close()
	if len(tail) >= len(events) {
		t.Fatalf("reconnect replayed %d events, full history is %d", len(tail), len(events))
	}
}

// copyFile is a helper for the kill snapshot.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestKillAndResumeByteIdentical is the acceptance test for the checkpoint
// design: a server killed mid-job (simulated by snapshotting the job
// directory at a durable checkpoint, plus a torn partial frame a real kill
// could leave) and restarted over that state resumes from the checkpoint
// and produces a final .vvf byte-identical to the uninterrupted run's. An
// ε job must also resume onto the same f: Phase I resolves it from the
// same seed, and the done manifest spends exactly the budget.
func TestKillAndResumeByteIdentical(t *testing.T) {
	input, tracksCSV := fixture(t, t.TempDir())
	panInput, panTracks := panFixture(t, t.TempDir())
	const eps = 12.0
	for _, tc := range []struct {
		name string
		req  jobRequest
	}{
		{"f", jobRequest{Input: input, Tracks: tracksCSV, F: 0.1, Seed: 5, Window: 9}},
		{"eps", jobRequest{Input: input, Tracks: tracksCSV, Eps: eps, Seed: 5, Window: 9}},
		// A moving camera: finalize's re-encode of the staging codes the
		// pan as shifted deltas, chosen from the frames alone.
		{"moving", jobRequest{Input: panInput, Tracks: panTracks, F: 0.1, Seed: 5, Window: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root1, snapRoot := t.TempDir(), t.TempDir()

			srv1, ts1 := newTestServer(t, root1, 1)
			srv1.afterCheckpoint = func(id string, frames int) {
				if frames != 18 {
					return
				}
				// Freeze the on-disk job state exactly as a kill at this instant
				// would leave it: the synced staging, the manifest promising 18
				// frames — and a torn half-written frame beyond the checkpoint.
				copyFile(t, filepath.Join(root1, id, "manifest.json"), filepath.Join(snapRoot, id, "manifest.json"))
				copyFile(t, filepath.Join(root1, id, "staging.raw"), filepath.Join(snapRoot, id, "staging.raw"))
				f, err := os.OpenFile(filepath.Join(snapRoot, id, "staging.raw"), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := f.Write(bytes.Repeat([]byte{0xAB}, 97)); err != nil {
					t.Error(err)
				}
				f.Close()
			}

			m, code := postJob(t, ts1, tc.req)
			if code != http.StatusAccepted {
				t.Fatalf("POST = %d", code)
			}
			srv1.Wait()
			if got, _ := getManifest(t, ts1, m.ID); got.State != store.StateDone {
				t.Fatalf("uninterrupted run finished %s (%s)", got.State, got.Error)
			}
			uninterrupted, err := os.ReadFile(filepath.Join(root1, m.ID, "output.vvf"))
			if err != nil {
				t.Fatal(err)
			}

			// Sanity: the snapshot captured a half-done job.
			snapFS, err := store.NewFS(snapRoot)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := snapFS.Load(m.ID)
			if err != nil {
				t.Fatalf("snapshot manifest: %v", err)
			}
			if snap.State != store.StateRunning || snap.CheckpointFrames != 18 {
				t.Fatalf("snapshot: state=%s checkpoint=%d, want running/18", snap.State, snap.CheckpointFrames)
			}

			// "Restart" the server over the snapshot and resume.
			srv2, ts2 := newTestServer(t, snapRoot, 1)
			n, err := srv2.ResumeInterrupted()
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("ResumeInterrupted resumed %d jobs, want 1", n)
			}
			srv2.Wait()

			resumed, code := getManifest(t, ts2, m.ID)
			if code != http.StatusOK || resumed.State != store.StateDone {
				t.Fatalf("resumed job: %d %s (%s)", code, resumed.State, resumed.Error)
			}
			artifact, err := os.ReadFile(filepath.Join(snapRoot, m.ID, "output.vvf"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(artifact, uninterrupted) {
				t.Fatalf("resumed output (%d bytes) is not byte-identical to the uninterrupted run (%d bytes)",
					len(artifact), len(uninterrupted))
			}
			if tc.req.Input == panInput && shiftedFrames(t, artifact) == 0 {
				t.Fatal("the moving clip's artifact holds no shifted frame")
			}
			orig, _ := getManifest(t, ts1, m.ID)
			if resumed.Epsilon != orig.Epsilon || len(resumed.Ledger) != len(orig.Ledger) {
				t.Fatalf("resumed ledger diverged: eps %v/%v, windows %d/%d",
					resumed.Epsilon, orig.Epsilon, len(resumed.Ledger), len(orig.Ledger))
			}
			for i, w := range resumed.Ledger {
				if w != orig.Ledger[i] {
					t.Fatalf("ledger window %d: %+v vs %+v", i, w, orig.Ledger[i])
				}
			}
			if resumed.ResolvedF != orig.ResolvedF {
				t.Fatalf("resumed f %v, uninterrupted %v", resumed.ResolvedF, orig.ResolvedF)
			}
			if back, err := ldp.Epsilon(resumed.Picked, resumed.ResolvedF); err != nil || back != resumed.Epsilon {
				t.Fatalf("Epsilon(%d, %v) = %v, %v; manifest says %v",
					resumed.Picked, resumed.ResolvedF, back, err, resumed.Epsilon)
			}
			if tc.req.Eps > 0 && math.Abs(resumed.Epsilon-eps) > 1e-9*eps {
				t.Fatalf("ε job spent %v, budget %v", resumed.Epsilon, eps)
			}
		})
	}
}

// TestUploadJob: an octet-stream POST stages the body as the job's input
// and produces the same artifact a path-based submission would.
func TestUploadJob(t *testing.T) {
	input, tracksCSV := fixture(t, t.TempDir())
	srv, ts := newTestServer(t, t.TempDir(), 1)

	data, err := os.ReadFile(input)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/jobs?f=0.1&seed=5&window=9&tracks=%s", ts.URL, tracksCSV)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var m store.Manifest
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload POST: %d %v", resp.StatusCode, err)
	}
	srv.Wait()

	got, _ := getManifest(t, ts, m.ID)
	if got.State != store.StateDone {
		t.Fatalf("upload job finished %s (%s)", got.State, got.Error)
	}
	outResp, err := http.Get(ts.URL + "/jobs/" + m.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := io.ReadAll(outResp.Body)
	outResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := cliEquivalent(t, input, tracksCSV, 0.1, 5, 9); !bytes.Equal(artifact, want) {
		t.Fatalf("uploaded job's artifact differs from the path-based equivalent")
	}
}

// TestSubmitValidation: a bad submission returns 400 and releases its
// worker slot.
func TestSubmitValidation(t *testing.T) {
	input, tracksCSV := fixture(t, t.TempDir())
	srv, ts := newTestServer(t, t.TempDir(), 1)

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty submission = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"input":"/does/not/exist.vvf"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing input file = %d, want 400", resp.StatusCode)
	}

	// A budget outside Phase1Config's domain is refused at admission.
	if _, code := postJob(t, ts, jobRequest{Input: input, Tracks: tracksCSV, Eps: -1, Window: 9}); code != http.StatusBadRequest {
		t.Fatalf("negative eps = %d, want 400", code)
	}

	// Every failure released its slot: a real job still fits.
	if _, code := postJob(t, ts, jobRequest{Input: input, Tracks: tracksCSV, Window: 9}); code != http.StatusAccepted {
		t.Fatalf("POST after failed admissions = %d", code)
	}
	srv.Wait()
}

// Wait blocks until every admitted job has finished, so a test can read a
// job's final state.
func (s *Server) Wait() { s.wg.Wait() }

// shiftedFrames counts the frames of a .vvf stream coded as shifted
// deltas. The stream is a 27-byte header and the name (magic; width,
// height and frame count as little-endian uint32s; the FPS bits; the
// moving flag; the name length as a uint16), then gzip members of frames,
// which a multistream gzip reader reads as one stream: a kind byte, a
// shift byte when the kind is 2 (a shifted delta), and W·H·3 payload
// bytes.
func shiftedFrames(t *testing.T, data []byte) int {
	t.Helper()
	le := binary.LittleEndian
	w, h, frames := le.Uint32(data[4:]), le.Uint32(data[8:]), le.Uint32(data[12:])
	zr, err := gzip.NewReader(bytes.NewReader(data[27+int(le.Uint16(data[25:])):]))
	if err != nil {
		t.Fatal(err)
	}
	shifted := 0
	var kind [1]byte
	for range frames {
		if _, err := io.ReadFull(zr, kind[:]); err != nil {
			t.Fatal(err)
		}
		skip := int64(w) * int64(h) * 3
		if kind[0] == 2 {
			shifted++
			skip++
		}
		if _, err := io.CopyN(io.Discard, zr, skip); err != nil {
			t.Fatal(err)
		}
	}
	return shifted
}
