// Package obs is VERRO's stdlib-only observability layer: a span/timer API
// with nestable stages, monotonic per-stage counters, and worker-pool
// utilization gauges sampled from internal/par. It exists so a production
// serving deployment can see where a sanitization run spends its time and
// whether the pool is saturated, without perturbing the seeded outputs the
// experiment harness depends on.
//
// The design rule is nil-safety: every method on a nil *Trace or nil *Span
// is a no-op, so instrumented code never branches on "is tracing enabled" —
// disabled tracing is a nil pointer check per call site and costs nothing.
// Spans are created and ended on the coordinating goroutine; Add may be
// called from pool workers, but hot loops should batch increments (one Add
// per row/patch/frame, never per pixel) since Add takes the span lock.
//
// Nothing in this package touches randomness: counters read already-computed
// data and spans read the wall clock, so a traced run is bit-identical to an
// untraced one at any worker count (proved by TestTraceEquivalence).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"verro/internal/par"
)

// Canonical counter names. Stages may add ad-hoc counters; these are the
// ones the trace schema in DESIGN.md documents and the CLIs report.
const (
	// CFramesDetected counts frames run through a detector.
	CFramesDetected = "frames_detected"
	// CDetections counts detector hits surviving NMS.
	CDetections = "detections"
	// CWindowEvals counts sliding-window SVM evaluations (HOG+SVM only).
	CWindowEvals = "window_evals"
	// CFramesTracked counts frames consumed by the tracker.
	CFramesTracked = "frames_tracked"
	// CTracksConfirmed counts confirmed tracker identities.
	CTracksConfirmed = "tracks_confirmed"
	// CKeyFrames counts key frames extracted by the Algorithm 2 segmenter.
	CKeyFrames = "key_frames"
	// CSegments counts video segments produced by the segmenter.
	CSegments = "segments"
	// CBGFramesSampled counts frames fed to the temporal background median.
	CBGFramesSampled = "bg_frames_sampled"
	// CPatchesInpainted counts Criminisi patch copies.
	CPatchesInpainted = "patches_inpainted"
	// CKeyFramesPicked counts key frames the Phase I optimizer gave budget.
	CKeyFramesPicked = "keyframes_picked"
	// CRRBitsFlipped counts presence bits the random response flipped.
	CRRBitsFlipped = "rr_bits_flipped"
	// CObjectsLost counts objects whose randomized vector came out empty.
	CObjectsLost = "objects_lost"
	// CObjectsRendered counts object placements drawn into synthetic frames.
	CObjectsRendered = "objects_rendered"
	// CFramesRendered counts synthetic frames produced by Phase II.
	CFramesRendered = "frames_rendered"
	// CWindows counts bounded-memory streaming windows driven through a
	// pass (analysis or render) of the windowed pipeline.
	CWindows = "windows"
	// CWindowFrames counts the frames presented across all streaming
	// windows of a pass.
	CWindowFrames = "window_frames"
)

// Span is one timed stage of a run. Spans nest; a nil *Span is the disabled
// instrument and every method on it is a no-op.
type Span struct {
	name   string
	parent string
	start  time.Time

	mu       sync.Mutex
	end      time.Time
	counters map[string]int64
	children []*Span
	// obs is the trace's observer, inherited from the parent at Child time;
	// nil (the default) means no subscription and costs one nil check.
	obs *observer
}

// Child opens a sub-stage under s, started now. Returns nil (still safe to
// use) when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, parent: s.name, start: time.Now()}
	s.mu.Lock()
	c.obs = s.obs
	s.children = append(s.children, c)
	s.mu.Unlock()
	c.obs.emit(Event{Kind: EventSpanStart, Span: name, Parent: s.name})
	return c
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	first := s.end.IsZero()
	if first {
		s.end = time.Now()
	}
	dur := s.end.Sub(s.start)
	o := s.obs
	s.mu.Unlock()
	if first {
		o.emit(Event{Kind: EventSpanEnd, Span: s.name, Parent: s.parent, DurationNS: dur.Nanoseconds()})
	}
}

// Add increments the named monotonic counter by n. Safe from concurrent
// workers; batch increments in hot loops.
func (s *Span) Add(name string, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	s.counters[name] += n
	total := s.counters[name]
	o := s.obs
	s.mu.Unlock()
	o.emit(Event{Kind: EventCounter, Span: s.name, Parent: s.parent, Counter: name, Delta: n, Total: total})
}

// Counter reads a counter (0 when absent or s is nil).
func (s *Span) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// snapshot converts the span subtree to its report form. Unfinished spans
// report their duration up to now.
func (s *Span) snapshot(traceStart time.Time) *SpanReport {
	s.mu.Lock()
	end := s.end
	counters := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		counters[k] = v
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if end.IsZero() {
		end = time.Now()
	}
	rep := &SpanReport{
		Name:       s.name,
		StartNS:    s.start.Sub(traceStart).Nanoseconds(),
		DurationNS: end.Sub(s.start).Nanoseconds(),
	}
	if len(counters) > 0 {
		rep.Counters = counters
	}
	for _, c := range children {
		rep.Children = append(rep.Children, c.snapshot(traceStart))
	}
	return rep
}

// Trace owns one run's span tree and the worker pools whose utilization the
// report samples. A nil *Trace disables all instrumentation.
type Trace struct {
	name  string
	start time.Time
	root  *Span

	mu    sync.Mutex
	pools []*par.Pool
}

// NewTrace starts a trace whose root span opens immediately.
func NewTrace(name string) *Trace {
	now := time.Now()
	return &Trace{
		name:  name,
		start: now,
		root:  &Span{name: name, start: now},
	}
}

// Root returns the root span (nil for a nil trace), the parent under which
// pipeline stages open their stage spans.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// AttachPool registers a worker pool whose Stats the report will sample as
// utilization gauges. Pipeline entry points attach the scoped pool they
// create for the run; attaching is idempotent per pool.
func (t *Trace) AttachPool(p *par.Pool) {
	if t == nil || p == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, q := range t.pools {
		if q == p {
			return
		}
	}
	t.pools = append(t.pools, p)
}

// Finish closes the root span.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.End()
}

// Report is the machine-readable run report the -trace flag emits; the
// schema is documented in DESIGN.md §2c.
type Report struct {
	// Name labels the run (the trace name).
	Name string `json:"name"`
	// DurationNS is the root span's wall time.
	DurationNS int64 `json:"duration_ns"`
	// Span is the root of the stage tree.
	Span *SpanReport `json:"span"`
	// Counters aggregates every span's counters by name over the tree.
	Counters map[string]int64 `json:"counters"`
	// Pool carries the worker-pool utilization gauges, when any pool was
	// attached.
	Pool *PoolReport `json:"pool,omitempty"`
}

// SpanReport is one node of the span tree.
type SpanReport struct {
	Name string `json:"name"`
	// StartNS is the span's start offset from the trace start.
	StartNS    int64            `json:"start_ns"`
	DurationNS int64            `json:"duration_ns"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []*SpanReport    `json:"children,omitempty"`
}

// Find returns the first span named name in a depth-first walk rooted at r,
// or nil.
func (r *SpanReport) Find(name string) *SpanReport {
	if r == nil {
		return nil
	}
	if r.Name == name {
		return r
	}
	for _, c := range r.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// PoolReport is the worker-pool utilization gauge block: attached pools'
// stats merged (sizes maxed, counters summed, busy slices added slot-wise).
type PoolReport struct {
	Workers          int     `json:"workers"`
	Calls            int64   `json:"calls"`
	ChunksDispatched int64   `json:"chunks_dispatched"`
	BusyNSPerWorker  []int64 `json:"busy_ns_per_worker"`
	BusyTotalNS      int64   `json:"busy_total_ns"`
	// Utilization is busy time over workers × wall time, in [0, 1]-ish
	// (nested pools can push it above 1).
	Utilization float64 `json:"utilization"`
}

// Report snapshots the trace. Safe to call on a running trace (spans still
// open report their duration so far) and on a nil trace (returns nil).
func (t *Trace) Report() *Report {
	if t == nil {
		return nil
	}
	span := t.root.snapshot(t.start)
	rep := &Report{
		Name:       t.name,
		DurationNS: span.DurationNS,
		Span:       span,
		Counters:   map[string]int64{},
	}
	aggregate(span, rep.Counters)

	t.mu.Lock()
	pools := append([]*par.Pool(nil), t.pools...)
	t.mu.Unlock()
	if len(pools) > 0 {
		pr := &PoolReport{}
		for _, p := range pools {
			st := p.Stats()
			if st.Workers > pr.Workers {
				pr.Workers = st.Workers
			}
			pr.Calls += st.Calls
			pr.ChunksDispatched += st.Chunks
			for i, d := range st.Busy {
				for i >= len(pr.BusyNSPerWorker) {
					pr.BusyNSPerWorker = append(pr.BusyNSPerWorker, 0)
				}
				pr.BusyNSPerWorker[i] += d.Nanoseconds()
			}
		}
		for _, ns := range pr.BusyNSPerWorker {
			pr.BusyTotalNS += ns
		}
		if rep.DurationNS > 0 && pr.Workers > 0 {
			pr.Utilization = float64(pr.BusyTotalNS) / (float64(rep.DurationNS) * float64(pr.Workers))
		}
		rep.Pool = pr
	}
	return rep
}

func aggregate(s *SpanReport, into map[string]int64) {
	for k, v := range s.Counters {
		into[k] += v
	}
	for _, c := range s.Children {
		aggregate(c, into)
	}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile finishes the trace and writes its report to path — the -trace
// flag implementation. No-op for a nil trace.
func (t *Trace) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	t.Finish()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	defer f.Close()
	if err := t.Report().WriteJSON(f); err != nil {
		return fmt.Errorf("obs: encode trace: %w", err)
	}
	return f.Close()
}

// Summary renders a compact per-stage table of the report (name, duration,
// counters sorted by name) for human eyes; the CLIs print it alongside the
// JSON file.
func (r *Report) Summary() string {
	if r == nil {
		return ""
	}
	var b []byte
	var walk func(s *SpanReport, depth int)
	walk = func(s *SpanReport, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, ' ', ' ')
		}
		b = append(b, fmt.Sprintf("%-12s %12v", s.Name, time.Duration(s.DurationNS).Round(time.Microsecond))...)
		names := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			b = append(b, fmt.Sprintf("  %s=%d", k, s.Counters[k])...)
		}
		b = append(b, '\n')
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(r.Span, 0)
	if r.Pool != nil {
		b = append(b, fmt.Sprintf("pool: workers=%d calls=%d chunks=%d busy=%v utilization=%.2f\n",
			r.Pool.Workers, r.Pool.Calls, r.Pool.ChunksDispatched,
			time.Duration(r.Pool.BusyTotalNS).Round(time.Microsecond), r.Pool.Utilization)...)
	}
	return string(b)
}

// Runtime bundles the per-run execution resources — the scoped worker pool
// and the active trace span — that flow together through the pipeline
// stages. The zero Runtime is fully functional: default pool, no tracing.
type Runtime struct {
	Pool *par.Pool
	Span *Span
}

// SpanSetter is implemented by components (detectors) whose construction
// site differs from the stage span they should report under; the stage
// opens its span and rebinds the component to it.
type SpanSetter interface {
	SetSpan(*Span)
}
