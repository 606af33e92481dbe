package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"verro"
	"verro/internal/obs"
)

// TestTraceGoldenSchema is the end-to-end contract for -trace: a seeded run
// over the scaled MOT01 benchmark (detection+tracking included, f high
// enough that random response demonstrably flips bits) must emit a span for
// every pipeline stage with its headline counter non-zero and report the
// -workers pool size, and neither tracing nor the worker count may change
// the published video by a single byte.
func TestTraceGoldenSchema(t *testing.T) {
	preset, err := verro.BenchmarkPreset("MOT01")
	if err != nil {
		t.Fatal(err)
	}
	g, err := verro.GenerateBenchmark(preset.Scaled(0.25))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.vvf")
	if _, err := verro.WriteVideo(in, g.Video); err != nil {
		t.Fatal(err)
	}

	tracePath := filepath.Join(dir, "trace.json")
	traced := options{
		in: in, out: filepath.Join(dir, "out-traced.vvf"),
		f: 0.5, seed: 3, tracePath: tracePath, workers: 3,
	}
	if err := run(traced); err != nil {
		t.Fatal(err)
	}
	untraced := options{
		in: in, out: filepath.Join(dir, "out-plain.vvf"),
		f: 0.5, seed: 3,
	}
	if err := run(untraced); err != nil {
		t.Fatal(err)
	}

	// Tracing must not perturb the seeded output.
	a, err := os.ReadFile(traced.out)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(untraced.out)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("-trace -workers 3 changed the published video bytes")
	}

	// The report must follow the documented schema.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("trace file is not a valid report: %v", err)
	}
	if rep.Name != "verro" || rep.Span == nil {
		t.Fatalf("report missing root span: %+v", rep)
	}
	if rep.DurationNS <= 0 {
		t.Errorf("non-positive run duration %d", rep.DurationNS)
	}
	if rep.Pool == nil || rep.Pool.ChunksDispatched == 0 {
		t.Fatalf("missing or empty pool gauges: %+v", rep.Pool)
	}
	if rep.Pool.Workers != 3 {
		t.Errorf("pool workers = %d, want the -workers 3 of the run", rep.Pool.Workers)
	}

	// Every pipeline stage must appear with its headline counter > 0.
	stages := []struct{ span, counter string }{
		{"detect", obs.CFramesDetected},
		{"track", obs.CFramesTracked},
		{"keyframes", obs.CKeyFrames},
		{"inpaint", obs.CBGFramesSampled},
		{"phase1", obs.CKeyFramesPicked},
		{"phase2", obs.CFramesRendered},
	}
	for _, s := range stages {
		sp := rep.Span.Find(s.span)
		if sp == nil {
			t.Errorf("stage span %q missing from trace", s.span)
			continue
		}
		if got := sp.Counters[s.counter]; got <= 0 {
			t.Errorf("stage %q counter %s = %d, want > 0", s.span, s.counter, got)
		}
	}
	// Random response at f=0.5 over this seeded benchmark must have
	// flipped bits, and the aggregated root counters must include them.
	if got := rep.Counters[obs.CRRBitsFlipped]; got <= 0 {
		t.Errorf("aggregate %s = %d, want > 0 at f=0.5", obs.CRRBitsFlipped, got)
	}
	if got := rep.Counters[obs.CDetections]; got <= 0 {
		t.Errorf("aggregate %s = %d, want > 0", obs.CDetections, got)
	}
}
