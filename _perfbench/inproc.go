package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"verro"
)

const (
	// streamWindow is the window of the bounded-memory path, as the CLI's
	// -window and verrod use it.
	streamWindow = 16
	flipF        = 0.1

	detectTraceName   = "detect-and-track"
	sanitizeTraceName = "sanitize"
)

// opCtx carries one operation's identity and, on a traced op, the recorder
// its spans go to. Every method is a no-op on an untraced op.
type opCtx struct {
	rec  *recorder
	op   int
	root int
}

// begin opens a span of this op under parent and returns its id.
func (o *opCtx) begin(parent int, name, layer string, depth int) int {
	if o.rec == nil {
		return 0
	}
	return o.rec.begin(o.op, parent, name, layer, depth)
}

func (o *opCtx) end(id int) {
	if o.rec != nil {
		o.rec.end(id)
	}
}

// opResult is what one in-process operation measured.
type opResult struct {
	seed        int64
	traced      bool
	wall        time.Duration
	firstOutput time.Duration
	cpu         time.Duration
	outPath     string
	outBytes    int64
	// decoded counts frames the benchmark's source wrapper delivered.
	decoded int
	// Traced ops only.
	layers      map[string]time.Duration
	counters    map[string]int64
	poolBusy    time.Duration
	poolWorkers int
	allocBytes  uint64
	gcCycles    uint64
}

// timedSource wraps a stream source to count decoded frames and, on traced
// ops, record each read as a decode span.
type timedSource struct {
	verro.StreamSource
	o       *opCtx
	parent  int
	decoded int
}

func (s *timedSource) Next(budget int) ([]*verro.Image, int, error) {
	id := s.o.begin(s.parent, "source.Next", layerDecode, leafDepth)
	frames, start, err := s.StreamSource.Next(budget)
	s.o.end(id)
	s.decoded += len(frames)
	return frames, start, err
}

func (s *timedSource) Reset() error {
	id := s.o.begin(s.parent, "source.Reset", layerDecode, leafDepth)
	err := s.StreamSource.Reset()
	s.o.end(id)
	return err
}

// timedSink wraps a stream sink to stamp the first output and, on traced
// ops, record each write as an encode span.
type timedSink struct {
	verro.StreamSink
	o      *opCtx
	parent int
	first  time.Time
}

func (s *timedSink) Append(frames []*verro.Image) error {
	id := s.o.begin(s.parent, "sink.Append", layerEncode, leafDepth)
	err := s.StreamSink.Append(frames)
	s.o.end(id)
	if s.first.IsZero() {
		s.first = time.Now()
	}
	return err
}

func (s *timedSink) Close() error {
	id := s.o.begin(s.parent, "sink.Close", layerEncode, leafDepth)
	err := s.StreamSink.Close()
	s.o.end(id)
	return err
}

// inprocWorkload is stream-moving, whose pipeline runs inside this process.
type inprocWorkload struct {
	in     input
	outDir string
}

// traceObs runs call with an obs trace attached when o is traced, then
// nests the program's span tree under the benchmark span parent.
func traceObs(o *opCtx, parent int, name string, res *opResult, call func(*verro.Trace) error) error {
	if o.rec == nil {
		return call(nil)
	}
	start := time.Now()
	tr := verro.NewTrace(name)
	err := call(tr)
	tr.Finish()
	rep := tr.Report()
	o.rec.addReport(o.op, parent, start, rep)
	for k, v := range rep.Counters {
		res.counters[k] += v
	}
	if rep.Pool != nil {
		res.poolBusy += time.Duration(rep.Pool.BusyTotalNS)
		if rep.Pool.Workers > res.poolWorkers {
			res.poolWorkers = rep.Pool.Workers
		}
	}
	return err
}

// streamOp is stream-moving: OpenVideoSource → DetectAndTrackStream →
// Reset → SanitizeStream → FileSink, window 16, no tracks supplied.
func streamOp(w *inprocWorkload, o *opCtx, seed int64, out string, res *opResult) error {
	start := time.Now()
	id := o.begin(o.root, "OpenVideoSource", layerDecode, 1)
	fs, err := verro.OpenVideoSource(w.in.Video)
	o.end(id)
	if err != nil {
		return err
	}
	defer fs.Close()
	src := &timedSource{StreamSource: fs, o: o}

	var tracks *verro.TrackSet
	id = o.begin(o.root, "DetectAndTrackStream", layerDetect, 1)
	src.parent = id
	err = traceObs(o, id, detectTraceName, res, func(tr *verro.Trace) error {
		pcfg := verro.DefaultPipelineConfig()
		pcfg.WindowFrames = streamWindow
		pcfg.Trace = tr
		var err error
		tracks, err = verro.DetectAndTrackStream(src, pcfg)
		return err
	})
	o.end(id)
	if err != nil {
		return err
	}
	src.parent = o.root
	if err := src.Reset(); err != nil {
		return err
	}

	id = o.begin(o.root, "NewVideoSink", layerEncode, 1)
	fsink, err := verro.NewVideoSink(out, verro.StreamOutputMeta(fs.Meta()))
	o.end(id)
	if err != nil {
		return err
	}
	sink := &timedSink{StreamSink: fsink, o: o}
	cfg := verro.DefaultConfig()
	cfg.Seed = seed
	cfg.Phase1.F = flipF
	cfg.WindowFrames = streamWindow
	var r *verro.Result
	id = o.begin(o.root, "SanitizeStream", unattributed, 1)
	src.parent, sink.parent = id, id
	err = traceObs(o, id, sanitizeTraceName, res, func(tr *verro.Trace) error {
		cfg.Trace = tr
		var err error
		r, err = verro.SanitizeStream(src, tracks, cfg, sink)
		return err
	})
	o.end(id)
	if err != nil {
		fsink.Close()
		return err
	}
	res.decoded = src.decoded
	res.firstOutput = sink.first.Sub(start)
	res.outBytes = fsink.Written()
	return checkLedger(r.Windows, r.Epsilon, flipF, len(r.Phase1.Picked), w.in.Frames)
}

// checkLedger verifies that a streaming run's per-window privacy ledger
// covers the clip and recomposes to the run's ε.
func checkLedger(ws []verro.WindowSpend, eps, f float64, picked, frames int) error {
	k, covered, total := 0, 0, 0.0
	for _, w := range ws {
		if w.Start != covered {
			return fmt.Errorf("ledger window at %d, want %d", w.Start, covered)
		}
		k += w.Picked
		covered += w.Frames
		total += w.Epsilon
	}
	if covered != frames || k != picked {
		return fmt.Errorf("ledger covers %d frames and %d picked key frames, want %d and %d", covered, k, frames, picked)
	}
	want, err := verro.Epsilon(k, f)
	if err != nil {
		return err
	}
	if want != eps || math.Abs(total-eps) > 1e-9*math.Max(1, eps) {
		return fmt.Errorf("ledger recomposes to ε=%v (window sum %v), run reports %v", want, total, eps)
	}
	return nil
}

// runOp runs one streamOp of w and measures it. A traced op records its
// spans under a fresh op id.
func (w *inprocWorkload) runOp(rec *recorder, opID int, seed int64) (opResult, error) {
	res := opResult{seed: seed, traced: rec != nil, outPath: filepath.Join(w.outDir, fmt.Sprintf("out-%d-%d.vvf", seed, opID))}
	o := &opCtx{rec: rec, op: opID}
	if rec != nil {
		res.counters = map[string]int64{}
	}
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(samples)
	alloc0, gc0 := samples[0].Value.Uint64(), samples[1].Value.Uint64()
	cpu0 := selfCPU()
	start := time.Now()
	o.root = o.begin(0, "op", unattributed, 0)
	err := streamOp(w, o, seed, res.outPath, &res)
	o.end(o.root)
	res.wall = time.Since(start)
	res.cpu = selfCPU() - cpu0
	metrics.Read(samples)
	res.allocBytes = samples[0].Value.Uint64() - alloc0
	res.gcCycles = samples[1].Value.Uint64() - gc0
	if rec != nil {
		res.layers = rec.attribute(opID)
	}
	return res, err
}

// checkArtifact decodes a .vvf artifact in full and checks its geometry and
// frame count.
func checkArtifact(path string, w, h, frames int) error {
	src, err := verro.OpenVideoSource(path)
	if err != nil {
		return err
	}
	defer src.Close()
	m := src.Meta()
	if m.W != w || m.H != h || m.Frames != frames {
		return fmt.Errorf("artifact header %dx%d/%d frames, want %dx%d/%d", m.W, m.H, m.Frames, w, h, frames)
	}
	n := 0
	for {
		fr, _, err := src.Next(64)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("decode artifact: %w", err)
		}
		for _, f := range fr {
			if f.W != w || f.H != h {
				return fmt.Errorf("artifact frame %d is %dx%d", n, f.W, f.H)
			}
			n++
		}
	}
	if n != frames {
		return fmt.Errorf("artifact decodes to %d frames, want %d", n, frames)
	}
	return nil
}

// artifactChecker holds, per sanitizer seed, the digest of the first
// artifact seen; that first one is decoded in full, every later one must
// match it byte for byte.
type artifactChecker struct {
	w, h, frames int
	first        map[int64]string
}

func newArtifactChecker(in input) *artifactChecker {
	return &artifactChecker{w: in.W, h: in.H, frames: in.Frames, first: map[int64]string{}}
}

// check verifies the artifact at path made with seed and returns its sha256.
func (c *artifactChecker) check(seed int64, path string) (string, error) {
	sum, err := fileSHA256(path)
	if err != nil {
		return "", err
	}
	want, ok := c.first[seed]
	if !ok {
		if err := checkArtifact(path, c.w, c.h, c.frames); err != nil {
			return sum, err
		}
		c.first[seed] = sum
		return sum, nil
	}
	if sum != want {
		return sum, fmt.Errorf("seed %d artifact sha256 %s differs from the run's first %s", seed, sum[:12], want[:12])
	}
	return sum, nil
}

// removeQuietly deletes a checked artifact so every op writes a new file.
func removeQuietly(path string) { _ = os.Remove(path) }
