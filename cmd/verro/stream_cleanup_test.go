package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"verro"
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
// way — neither at -window 0, where the clip is read into memory first,
// nor at -window N, where the input streams from disk while the output is
// written.
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
