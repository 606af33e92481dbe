package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"verro"
	"verro/internal/vid"
)

// TestRunStreamFailureLeavesNoPartialOutput: when the streaming pipeline
// fails mid-run (here: the input's compressed stream is truncated, so
// decoding dies partway through), the CLI must not leave a truncated
// synthetic.vvf behind — a half-written output is indistinguishable from a
// sanitized artifact to anything that picks it up later.
func TestRunStreamFailureLeavesNoPartialOutput(t *testing.T) {
	preset, err := verro.BenchmarkPreset("MOT01")
	if err != nil {
		t.Fatal(err)
	}
	g, err := verro.GenerateBenchmark(preset.Scaled(0.25))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.vvf")
	if _, err := verro.WriteVideo(whole, g.Video); err != nil {
		t.Fatal(err)
	}
	tracksCSV := filepath.Join(dir, "tracks.csv")
	if err := g.Truth.SaveCSV(tracksCSV); err != nil {
		t.Fatal(err)
	}

	// Keep the header (so the source opens and the sink gets created) but
	// cut the payload, guaranteeing a decode failure after the output file
	// already exists.
	data, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.vvf")
	if err := os.WriteFile(truncated, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "out.vvf")
	opt := options{
		in: truncated, tracksPath: tracksCSV, out: out,
		f: 0.1, seed: 1, window: 8,
	}
	if err := run(opt); err == nil {
		t.Fatal("run over a truncated input succeeded; want a decode error")
	}
	for _, p := range []string{out, out + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("failed streaming run left %s behind (stat err: %v)", p, err)
		}
	}

	// The same run over the intact input must still work — the cleanup path
	// must not have removed anything it shouldn't on success.
	opt.in = whole
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("successful run left no output: %v", err)
	}
}

// TestRunInPlace: -out may name the input file. The run must publish the
// same bytes as one writing elsewhere and must not lose the input on the
// way, at -window 0 (one whole-clip window) as at -window N: either way the
// input streams from disk while the output is written.
func TestRunInPlace(t *testing.T) {
	preset, err := verro.BenchmarkPreset("MOT01")
	if err != nil {
		t.Fatal(err)
	}
	g, err := verro.GenerateBenchmark(preset.Scaled(0.25))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tracksCSV := filepath.Join(dir, "tracks.csv")
	if err := g.Truth.SaveCSV(tracksCSV); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{0, 8} {
		in := filepath.Join(dir, fmt.Sprintf("clip-w%d.vvf", window))
		if _, err := verro.WriteVideo(in, g.Video); err != nil {
			t.Fatal(err)
		}
		want := filepath.Join(dir, fmt.Sprintf("want-w%d.vvf", window))
		opt := options{in: in, tracksPath: tracksCSV, out: want, f: 0.1, seed: 1, window: window}
		if err := run(opt); err != nil {
			t.Fatal(err)
		}
		opt.out = in
		if err := run(opt); err != nil {
			t.Fatalf("window %d: in-place run: %v", window, err)
		}
		a, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(in)
		if err != nil {
			t.Fatalf("window %d: in-place run lost the file: %v", window, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("window %d: in-place output differs from the output written elsewhere", window)
		}
		if _, err := os.Stat(in + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("window %d: in-place run left its temporary file (stat err: %v)", window, err)
		}
	}
}

// TestRunMultiType: -multitype is the CLI's one sanitize call with each
// object class sanitized on its own. On a clip with two classes it must
// write the same file at -window 0 and at -window 8, and that file must be
// the library's per-class output.
func TestRunMultiType(t *testing.T) {
	preset, err := verro.BenchmarkPreset("MOT01")
	if err != nil {
		t.Fatal(err)
	}
	g, err := verro.GenerateBenchmark(preset.Scaled(0.25))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range g.Truth.Tracks {
		if i%2 == 1 {
			tr.Class = "vehicle"
		}
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "clip.vvf")
	if _, err := verro.WriteVideo(in, g.Video); err != nil {
		t.Fatal(err)
	}
	tracksCSV := filepath.Join(dir, "tracks.csv")
	if err := g.Truth.SaveCSV(tracksCSV); err != nil {
		t.Fatal(err)
	}

	cfg := verro.DefaultConfig()
	cfg.Seed = 3
	cfg.PerClass = true
	res, err := verro.Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerClass) != 2 {
		t.Fatalf("library run sanitized %d classes, want 2", len(res.PerClass))
	}
	var want bytes.Buffer
	if _, err := vid.Encode(&want, res.Synthetic); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{0, 8} {
		out := filepath.Join(dir, fmt.Sprintf("out-w%d.vvf", window))
		opt := options{in: in, tracksPath: tracksCSV, out: out, f: 0.1, seed: 3, multi: true, window: window}
		if err := run(opt); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("window %d: -multitype output differs from the library's per-class run", window)
		}
	}
}
