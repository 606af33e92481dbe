// Package server implements verrod's HTTP job API: sanitization as a
// service over the streaming pipeline, with window-granularity
// checkpointing so a killed server resumes half-finished videos on restart
// and still produces output byte-identical to an uninterrupted run.
//
// Endpoints (Go 1.22 method/path patterns):
//
//	POST /jobs              submit a job (JSON body, or octet-stream upload)
//	GET  /jobs              list all jobs (persisted manifests)
//	GET  /jobs/{id}         one job's manifest: state, checkpoint, ledger
//	GET  /jobs/{id}/events  live progress as Server-Sent Events
//	GET  /jobs/{id}/output  the final sanitized .vvf
//
// Jobs run on a bounded worker fleet: at most MaxJobs execute concurrently,
// each on its own scoped worker pool, and a POST finding every slot taken is
// rejected with 429 rather than queued — the caller owns retry policy.
// Progress events come straight from the pipeline's observability spans
// (internal/obs) via a trace observer; no polling loop sits between the
// sanitizer and the SSE stream.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"verro"
	"verro/internal/store"
)

// Config assembles a Server.
type Config struct {
	// Store persists manifests and owns job artifact directories.
	Store *store.FS
	// MaxJobs bounds concurrently executing jobs (default 2).
	MaxJobs int
	// Window is the streaming window (frames) for jobs that do not set one
	// (default 64). Checkpoints land on these boundaries.
	Window int
	// Workers is the per-job pool size for jobs that do not set one
	// (0 = the process-wide default).
	Workers int
	// Rate, when positive, throttles POST /jobs to this many submissions
	// per second per client address (token bucket of depth Burst);
	// 0 disables rate limiting. Requires Now.
	Rate float64
	// Burst is the token-bucket depth when Rate is on (minimum 1): how many
	// submissions a quiet client may burst before the per-second rate
	// applies.
	Burst int
	// Now supplies the rate limiter's clock; required when Rate > 0. It is
	// injected rather than defaulted so this package stays clear of the
	// walltime lint — time.Now is reserved for internal/obs and
	// internal/par, and the daemon passes it in at the edge.
	Now func() time.Time
}

// Server is the verrod job service.
type Server struct {
	cfg Config
	mux *http.ServeMux
	// sem holds one token per running job; admission is a non-blocking send.
	sem chan struct{}
	wg  sync.WaitGroup
	// limiter throttles POST /jobs per client address; nil when Rate is 0.
	limiter *rateLimiter

	mu     sync.Mutex
	nextID int
	logs   map[string]*eventLog

	// afterCheckpoint, when set (tests), runs synchronously after each
	// durable checkpoint with the job's id and staged frame count — the
	// window where a kill is guaranteed recoverable.
	afterCheckpoint func(id string, frames int)
	// holdStart, when set (tests), blocks each admitted job until the
	// channel is closed, pinning slots occupied.
	holdStart chan struct{}
}

// New builds a Server over the given store. Existing manifests are scanned
// so new job IDs continue the sequence across restarts.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: nil store")
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	s := &Server{
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.MaxJobs),
		logs: make(map[string]*eventLog),
	}
	if cfg.Rate > 0 {
		if cfg.Now == nil {
			return nil, fmt.Errorf("server: Rate requires a Now clock")
		}
		s.limiter = newRateLimiter(cfg.Rate, cfg.Burst, cfg.Now)
	}
	ms, err := cfg.Store.List()
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		var n int
		if _, err := fmt.Sscanf(m.ID, "job-%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /jobs/{id}/output", s.handleOutput)
	return s, nil
}

// Handler returns the HTTP handler serving the job API.
func (s *Server) Handler() http.Handler { return s.mux }

// ResumeInterrupted restarts every job a previous process left in the
// pending or running state, resuming from its last durable checkpoint. The
// jobs block-wait for worker slots (they were admitted before the crash, so
// admission control does not apply again). Returns how many jobs resumed.
func (s *Server) ResumeInterrupted() (int, error) {
	ms, err := s.cfg.Store.List()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, m := range ms {
		if m.State != store.StateRunning && m.State != store.StatePending {
			continue
		}
		n++
		m := m
		s.wg.Add(1)
		go func() {
			s.sem <- struct{}{}
			s.runJob(m)
		}()
	}
	return n, nil
}

// log returns (creating if needed) the job's event log.
func (s *Server) log(id string) *eventLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.logs[id]
	if !ok {
		l = newEventLog()
		s.logs[id] = l
	}
	return l
}

// finishJob closes the job's event log with its terminal state and evicts it
// from the registry. Subscribers already attached hold the log pointer and
// drain the full history; subscribers arriving later are served a transient
// log reconstructed from the manifest (the terminal event survives, the
// progress history does not). Without the eviction the registry grows by one
// log — holding the job's entire event history — per job for the life of the
// process.
func (s *Server) finishJob(m *store.Manifest, l *eventLog) {
	l.close(m.State, m.Error)
	s.mu.Lock()
	delete(s.logs, m.ID)
	s.mu.Unlock()
}

// subscribeLog returns the event log an /events subscriber should drain for
// the manifest it loaded. Live jobs share the runner's registered log.
// Finished jobs get whatever log still lives in the registry, or a transient
// closed one reconstructed from the manifest — re-registering it would
// strand an entry no runner will ever evict again.
func (s *Server) subscribeLog(m *store.Manifest) *eventLog {
	done := m.State == store.StateDone || m.State == store.StateFailed
	s.mu.Lock()
	l, ok := s.logs[m.ID]
	if !ok {
		l = newEventLog()
		if !done {
			s.logs[m.ID] = l
		}
	}
	s.mu.Unlock()
	if done {
		// The job finished (possibly in a previous process, with its live
		// log lost); make sure this log terminates for subscribers.
		l.close(m.State, m.Error)
		return l
	}
	if !ok {
		// We registered a fresh log for what the loaded manifest called a
		// live job. If the job finished between that load and the
		// registration, its runner has already evicted its own log and will
		// never close or evict ours — re-read the state and clean up. (A
		// genuinely live job cannot hit this: its runner registers the log
		// before any terminal save, so the lookup above would have found
		// it.)
		if cur, err := s.cfg.Store.Load(m.ID); err == nil &&
			(cur.State == store.StateDone || cur.State == store.StateFailed) {
			s.finishJob(cur, l)
		}
	}
	return l
}

// allocID hands out the next sequential job ID. Sequential (not random) IDs
// keep the service deterministic and lint-clean: no global randomness, and
// listings sort in submission order.
func (s *Server) allocID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return fmt.Sprintf("job-%06d", s.nextID)
}

// jobRequest is the POST /jobs JSON body. Uploads pass the same parameters
// as query values instead.
type jobRequest struct {
	// Input is the path to the input .vvf on the server's filesystem
	// (ignored for uploads — the body is the video).
	Input string `json:"input"`
	// Tracks optionally points at an object-tracks CSV; when empty the
	// pipeline's detection+tracking preprocessing runs first.
	Tracks string `json:"tracks,omitempty"`
	// F is the flip probability; Eps > 0 instead fixes a total ε budget,
	// which Phase I converts to f over the key frames it picks.
	F   float64 `json:"f,omitempty"`
	Eps float64 `json:"eps,omitempty"`
	// Seed drives all randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Window overrides the server's streaming window for this job.
	Window int `json:"window,omitempty"`
	// Workers overrides the per-job worker-pool size.
	Workers int `json:"workers,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The connection is the only place an encode error could surface; the
	// status line is already gone, so there is nothing useful left to do.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit admits a job: acquire a worker slot (429 when none is free),
// persist the manifest, and start the runner. The input's geometry is
// probed before the manifest is written so resume logic never has to guess.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The rate check comes before the body is touched: a throttled client
	// gets its 429 without costing the server upload staging or a geometry
	// probe, and without briefly occupying a worker slot.
	if s.limiter != nil {
		if ok, retry := s.limiter.allow(clientKey(r.RemoteAddr)); !ok {
			w.Header().Set("Retry-After", strconv.FormatInt(int64(retry/time.Second), 10))
			writeError(w, http.StatusTooManyRequests,
				"rate limit exceeded for %s; retry in %s", clientKey(r.RemoteAddr), retry)
			return
		}
	}
	select {
	case s.sem <- struct{}{}:
	default:
		writeError(w, http.StatusTooManyRequests,
			"job limit reached (%d running); retry when a slot frees", cap(s.sem))
		return
	}
	m, err := s.admit(r)
	if err != nil {
		<-s.sem // give back the slot taken above
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The runner writes m as the job proceeds, so the response encodes a
	// copy of the admitted manifest taken before it starts.
	admitted := *m
	s.wg.Add(1)
	go s.runJob(m)
	writeJSON(w, http.StatusAccepted, &admitted)
}

// admit parses the request, stages an uploaded input if any, probes the
// video geometry, and persists the initial manifest. The caller holds a
// worker slot; on error it releases it and nothing is left behind.
func (s *Server) admit(r *http.Request) (*store.Manifest, error) {
	var req jobRequest
	upload := r.Header.Get("Content-Type") == "application/octet-stream"
	if upload {
		q := r.URL.Query()
		req.Tracks = q.Get("tracks")
		for key, dst := range map[string]*float64{"f": &req.F, "eps": &req.Eps} {
			if v := q.Get(key); v != "" {
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("query %s: %w", key, err)
				}
				*dst = x
			}
		}
		for key, dst := range map[string]*int{"window": &req.Window, "workers": &req.Workers} {
			if v := q.Get(key); v != "" {
				x, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("query %s: %w", key, err)
				}
				*dst = x
			}
		}
		if v := q.Get("seed"); v != "" {
			x, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("query seed: %w", err)
			}
			req.Seed = x
		}
	} else {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			return nil, fmt.Errorf("decode request: %w", err)
		}
		if req.Input == "" {
			return nil, fmt.Errorf("missing input path")
		}
	}
	if req.F == 0 {
		req.F = 0.1
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Window <= 0 {
		req.Window = s.cfg.Window
	}
	if req.Workers == 0 {
		req.Workers = s.cfg.Workers
	}
	// Vet the privacy parameters at admission so a bad request fails with a
	// 400 now instead of an asynchronous job failure later. The runner
	// re-validates before use (the manifest is plain JSON on disk), but the
	// client-facing contract is enforced here.
	probe := verro.DefaultConfig()
	probe.Phase1.F = req.F
	probe.Phase1.Eps = req.Eps
	if err := probe.Validate(); err != nil {
		return nil, err
	}

	id := s.allocID()
	dir, err := s.cfg.Store.Dir(id)
	if err != nil {
		return nil, err
	}
	input := req.Input
	if upload {
		input = filepath.Join(dir, "input.vvf")
		f, err := os.Create(input)
		if err != nil {
			return nil, err
		}
		if _, err := io.Copy(f, r.Body); err != nil {
			f.Close()
			s.discard(id)
			return nil, fmt.Errorf("upload: %w", err)
		}
		if err := f.Close(); err != nil {
			s.discard(id)
			return nil, err
		}
	}

	src, err := verro.OpenVideoSource(input)
	if err != nil {
		s.discard(id)
		return nil, fmt.Errorf("input: %w", err)
	}
	meta := src.Meta()
	src.Close()

	m := &store.Manifest{
		ID: id, State: store.StateRunning,
		Input: input, Tracks: req.Tracks,
		F: req.F, Eps: req.Eps, Seed: req.Seed,
		Window: req.Window, Workers: req.Workers,
		Name: meta.Name, W: meta.W, H: meta.H,
		Frames: meta.Frames, FPS: meta.FPS, Moving: meta.Moving,
	}
	if err := s.cfg.Store.Save(m); err != nil {
		s.discard(id)
		return nil, err
	}
	return m, nil
}

// discard removes a job that failed admission; the ID is burned. Best
// effort: leftovers without a manifest are inert — nothing lists or resumes
// from a directory that never got one.
func (s *Server) discard(id string) {
	_ = s.cfg.Store.Delete(id)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ms, err := s.cfg.Store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if ms == nil {
		ms = []*store.Manifest{}
	}
	writeJSON(w, http.StatusOK, ms)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.loadJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleOutput serves the final sanitized artifact. Only the published
// synthetic video ever leaves through here — raw inputs and the staging
// file have no route.
func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	m, ok := s.loadJob(w, r)
	if !ok {
		return
	}
	if m.State != store.StateDone || m.Output == "" {
		writeError(w, http.StatusConflict, "job %s is %s; no output yet", m.ID, m.State)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, m.Output)
}

// loadJob resolves {id} to a manifest, writing the error response itself
// when the ID is unsafe or unknown.
func (s *Server) loadJob(w http.ResponseWriter, r *http.Request) (*store.Manifest, bool) {
	id := r.PathValue("id")
	if !store.ValidID(id) {
		writeError(w, http.StatusBadRequest, "invalid job id")
		return nil, false
	}
	m, err := s.cfg.Store.Load(id)
	if os.IsNotExist(err) {
		writeError(w, http.StatusNotFound, "no such job %s", id)
		return nil, false
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return nil, false
	}
	return m, true
}

// handleEvents streams the job's progress as Server-Sent Events: every
// pipeline span opening/closing and counter increment, in trace order, with
// the event Seq as the SSE id so Last-Event-ID resumes a dropped
// subscription without replaying. A terminal "end" event carries the final
// state. Window progress is monotone: render windows open strictly in clip
// order (the coordinator emits them sequentially), and on a resumed job the
// first window event starts at the restored checkpoint.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	m, ok := s.loadJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	l := s.subscribeLog(m)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ctx := r.Context()
	go func() {
		// A cond.Wait cannot watch the client connection; kick waiters when
		// it goes away so the handler returns.
		<-ctx.Done()
		l.wake()
	}()

	cursor := 0
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		if seq, err := strconv.ParseInt(lastID, 10, 64); err == nil {
			cursor = l.cursorAfterSeq(seq)
		}
	}
	for {
		evs, next, done := l.next(cursor, func() bool { return ctx.Err() != nil })
		if ctx.Err() != nil {
			return
		}
		cursor = next
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
		}
		fl.Flush()
		if done {
			state, errMsg, _ := l.terminal()
			end := map[string]string{"state": state}
			if errMsg != "" {
				end["error"] = errMsg
			}
			data, _ := json.Marshal(end)
			fmt.Fprintf(w, "event: end\ndata: %s\n\n", data)
			fl.Flush()
			return
		}
	}
}
