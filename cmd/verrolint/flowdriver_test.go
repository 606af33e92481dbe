package main

import (
	"bytes"
	"strings"
	"testing"
)

// The leakdemo fixture is a deliberately planted end-to-end leak: a
// cmd-style binary printing a raw detection's fields to stdout. It is the
// acceptance check that the assembled driver — loader, flow engine,
// project policy — actually catches the thing the suite exists to catch.

func TestRunFlowCatchesSeededLeak(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/leakdemo"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "(privleak)") {
		t.Errorf("stdout missing privleak diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "raw object data reaches console output (fmt.Printf)") {
		t.Errorf("stdout missing the fmt sink message:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "privleak") {
		t.Errorf("summary line missing per-analyzer count: %s", stderr.String())
	}

	stdout.Reset()
	if code := run([]string{"-json", "./testdata/leakdemo"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-json: exit = %d, want 1", code)
	}
	matchGolden(t, "leakdemo.json", stdout.Bytes())
}

func TestRunListIncludesFlowAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"privleak", "epsconsist", "epshttp"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list missing %s:\n%s", name, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "capturerace") {
		t.Errorf("-list still names the deleted capturerace analyzer:\n%s", stdout.String())
	}
}
