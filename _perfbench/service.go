package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"verro"
)

// verrodFlags are the service settings of the service-jobs workload: two
// job slots (= clients = cores) and window-16 checkpoints.
var verrodFlags = []string{"-max-jobs", "2", "-window", "16"}

// serviceClients is the closed-loop client count, one connection each.
const serviceClients = 2

// verrodProc is one running verrod.
type verrodProc struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{}
}

// startVerrod spawns verrod on a free loopback port over dataDir and waits
// until GET /jobs answers.
func startVerrod(bin, dataDir, logPath string) (*verrodProc, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dataDir}, verrodFlags...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start verrod: %w", err)
	}
	p := &verrodProc{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(out)
	for p.base == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("verrod exited before serving (see %s)", logPath)
		}
		if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
			p.base = "http://" + strings.Fields(rest)[0]
		}
	}
	go func() {
		// Keep the pipe empty so verrod never blocks on a log line.
		_, _ = io.Copy(io.Discard, br)
		close(p.drained)
	}()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(p.base + "/jobs")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	p.stop()
	return nil, fmt.Errorf("verrod at %s never answered GET /jobs (see %s)", p.base, logPath)
}

// stop terminates verrod and waits for it to exit.
func (p *verrodProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-p.drained
		_ = p.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-exited
	}
}

// sseSpan is a program span seen on a job's event stream, timed by when
// its start and end events arrived.
type sseSpan struct {
	name, parent string
	start, end   time.Time
}

// attempt is one POST /jobs round trip.
type attempt struct {
	start, end time.Time
	refused    bool
}

// jobRecord is what one service job measured, in client-side times.
type jobRecord struct {
	seed   int64
	upload bool
	traced bool
	id     string
	err    error
	state  string

	start, accepted, done       time.Time
	analysisStart, firstWindow  time.Time
	phase2End, endEvent, output time.Time

	attempts   []attempt
	refused    int
	events     int
	windowDurs []time.Duration
	spans      []sseSpan
	counters   map[string]int64
	sha        string
	outBytes   int64
}

// jobClient is one closed-loop client with its own connection.
type jobClient struct {
	hc    *http.Client
	base  string
	input input
	video []byte
}

func newJobClient(base string, in input, video []byte) *jobClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &jobClient{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, input: in, video: video}
}

// run executes one job: POST /jobs (retrying each 429) → follow /events
// until end → GET /output. A traced job decodes every progress event into
// spans and counters; an untraced one only looks for its first checkpoint.
func (c *jobClient) run(seed int64, upload, traced bool) *jobRecord {
	r := &jobRecord{seed: seed, upload: upload, traced: traced, counters: map[string]int64{}}
	r.start = time.Now()
	r.err = c.submit(r)
	if r.err == nil {
		r.err = c.follow(r)
	}
	if r.err == nil {
		r.output = time.Now()
		r.err = c.download(r)
	}
	r.done = time.Now()
	return r
}

func (c *jobClient) newSubmit(r *jobRecord) (*http.Request, error) {
	if r.upload {
		q := fmt.Sprintf("?tracks=%s&f=%v&seed=%d", c.input.Tracks, flipF, r.seed)
		req, err := http.NewRequest(http.MethodPost, c.base+"/jobs"+q, bytes.NewReader(c.video))
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
		return req, err
	}
	body, err := json.Marshal(map[string]any{"input": c.input.Video, "tracks": c.input.Tracks, "f": flipF, "seed": r.seed})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

func (c *jobClient) submit(r *jobRecord) error {
	for {
		req, err := c.newSubmit(r)
		if err != nil {
			return err
		}
		a := attempt{start: time.Now()}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		a.end = time.Now()
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		a.refused = resp.StatusCode == http.StatusTooManyRequests
		r.attempts = append(r.attempts, a)
		if a.refused {
			// Counted, then retried: the slot of the job that just ended
			// frees moments after its end event.
			r.refused++
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
		}
		var m struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &m); err != nil || m.ID == "" {
			return fmt.Errorf("submit: bad manifest %q", body)
		}
		r.id, r.accepted = m.ID, a.end
		return nil
	}
}

// sseEvent is the JSON payload of a progress event (an obs event).
type sseEvent struct {
	Kind       string `json:"kind"`
	Span       string `json:"span"`
	Parent     string `json:"parent"`
	Counter    string `json:"counter"`
	Total      int64  `json:"total"`
	DurationNS int64  `json:"duration_ns"`
}

// follow reads the job's Server-Sent Events until the terminal end event.
func (c *jobClient) follow(r *jobRecord) error {
	resp, err := c.hc.Get(c.base + "/jobs/" + r.id + "/events")
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	open := map[[2]string]time.Time{}
	br := bufio.NewReader(resp.Body)
	var kind, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("events: stream ended before end: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			kind = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok {
			data = v
			continue
		}
		if line != "" {
			continue
		}
		now := time.Now()
		if kind == "end" {
			var end struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(data), &end); err != nil {
				return fmt.Errorf("events: bad end %q", data)
			}
			r.state, r.endEvent = end.State, now
			// Drain so the connection is reused for the next request.
			_, _ = io.Copy(io.Discard, br)
			if end.State != "done" {
				return fmt.Errorf("job %s ended %s: %s", r.id, end.State, end.Error)
			}
			return nil
		}
		r.events++
		if r.traced || r.firstWindow.IsZero() && strings.Contains(data, `"window@`) {
			var e sseEvent
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				return fmt.Errorf("events: bad event %q", data)
			}
			r.observe(e, now, open)
		}
		kind, data = "", ""
	}
}

// observe folds one progress event into the record.
func (r *jobRecord) observe(e sseEvent, now time.Time, open map[[2]string]time.Time) {
	key := [2]string{e.Parent, e.Span}
	switch e.Kind {
	case "span_start":
		open[key] = now
		if e.Span == "analysis" && r.analysisStart.IsZero() {
			r.analysisStart = now
		}
	case "span_end":
		dur := time.Duration(e.DurationNS)
		start, ok := open[key]
		if !ok {
			start = now.Add(-dur)
		}
		r.spans = append(r.spans, sseSpan{name: e.Span, parent: e.Parent, start: start, end: now})
		if e.Parent == "phase2" && strings.HasPrefix(e.Span, "window@") {
			r.windowDurs = append(r.windowDurs, dur)
			if r.firstWindow.IsZero() {
				r.firstWindow = now
			}
		}
		if e.Span == "phase2" {
			r.phase2End = now
		}
	case "counter":
		if e.Total > r.counters[e.Counter] {
			r.counters[e.Counter] = e.Total
		}
	}
}

// download fetches the artifact, hashing it as it arrives.
func (c *jobClient) download(r *jobRecord) error {
	resp, err := c.hc.Get(c.base + "/jobs/" + r.id + "/output")
	if err != nil {
		return fmt.Errorf("output: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("output: %s", resp.Status)
	}
	h := sha256.New()
	n, err := io.Copy(h, resp.Body)
	if err != nil {
		return fmt.Errorf("output: %w", err)
	}
	r.sha, r.outBytes = hex.EncodeToString(h.Sum(nil)), n
	return nil
}

// serviceReference sanitizes the input in process (window 16) for each
// seed, checks each artifact and its ledger, and returns their digests:
// every service artifact with that seed must equal its reference.
func serviceReference(in input, seeds []int64, dir string) (map[int64]string, error) {
	refs := map[int64]string{}
	tracks, err := verro.LoadTracks(in.Tracks)
	if err != nil {
		return nil, err
	}
	for _, seed := range seeds {
		path := filepath.Join(dir, fmt.Sprintf("ref-%d.vvf", seed))
		if err := sanitizeToFile(in, tracks, seed, path); err != nil {
			return nil, fmt.Errorf("reference seed %d: %w", seed, err)
		}
		if err := checkArtifact(path, in.W, in.H, in.Frames); err != nil {
			return nil, fmt.Errorf("reference seed %d: %w", seed, err)
		}
		if refs[seed], err = fileSHA256(path); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// sanitizeToFile runs SanitizeStream over in with window 16 into path and
// checks the run's ledger.
func sanitizeToFile(in input, tracks *verro.TrackSet, seed int64, path string) error {
	src, err := verro.OpenVideoSource(in.Video)
	if err != nil {
		return err
	}
	defer src.Close()
	sink, err := verro.NewVideoSink(path, verro.StreamOutputMeta(src.Meta()))
	if err != nil {
		return err
	}
	defer sink.Close()
	cfg := verro.DefaultConfig()
	cfg.Seed = seed
	cfg.Phase1.F = flipF
	cfg.WindowFrames = streamWindow
	res, err := verro.SanitizeStream(src, tracks, cfg, sink)
	if err != nil {
		return err
	}
	return checkLedger(res.Windows, res.Epsilon, flipF, len(res.Phase1.Picked), in.Frames)
}

// serviceManifest is the part of a job manifest the ledger check reads.
type serviceManifest struct {
	ID        string              `json:"id"`
	State     string              `json:"state"`
	F         float64             `json:"f"`
	ResolvedF float64             `json:"resolved_f"`
	Epsilon   float64             `json:"epsilon"`
	Picked    int                 `json:"picked"`
	Frames    int                 `json:"frames"`
	Ledger    []verro.WindowSpend `json:"ledger"`
}

// checkManifests lists every job verrod holds and checks that each job in
// ids finished and that its ε ledger recomposes to its ε. It returns the
// failing jobs with their reasons.
func checkManifests(base string, ids map[string]bool) (map[string]error, error) {
	resp, err := http.Get(base + "/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ms []serviceManifest
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		return nil, fmt.Errorf("list jobs: %w", err)
	}
	bad := map[string]error{}
	seen := map[string]bool{}
	for _, m := range ms {
		if !ids[m.ID] {
			continue
		}
		seen[m.ID] = true
		f := m.ResolvedF
		if f == 0 {
			f = m.F
		}
		if m.State != "done" {
			bad[m.ID] = fmt.Errorf("manifest state %s", m.State)
		} else if err := checkLedger(m.Ledger, m.Epsilon, f, m.Picked, m.Frames); err != nil {
			bad[m.ID] = err
		}
	}
	for id := range ids {
		if !seen[id] {
			bad[id] = fmt.Errorf("missing from GET /jobs")
		}
	}
	return bad, nil
}

// runClients drives the closed loop in rounds: in each round every client
// submits one job, and the next round starts when all of them are
// downloaded, until the time is up. Free-running clients settle into a
// phase relation (both jobs computing at once, or one computing while the
// other waits on I/O) that holds for a whole run and moved op_s_p50 by
// ±15% between runs; rounds fix it. In each round one client uploads the
// clip and the other names it by path, so an upload runs beside a by-path
// job. It returns every job and the wall time until the last round ended.
func runClients(clients []*jobClient, seeds []int64, dur time.Duration, trace bool) ([]*jobRecord, time.Duration) {
	var all []*jobRecord
	t0 := time.Now()
	for k := 0; time.Since(t0) < dur; k++ {
		round := make([]*jobRecord, len(clients))
		var wg sync.WaitGroup
		for ci, c := range clients {
			wg.Add(1)
			go func(ci int, c *jobClient) {
				defer wg.Done()
				round[ci] = c.run(seeds[(k/2+ci)%len(seeds)], (k+ci)%2 == 1, trace && k%2 == 1)
			}(ci, c)
		}
		wg.Wait()
		all = append(all, round...)
	}
	return all, time.Since(t0)
}
