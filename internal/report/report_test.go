package report

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"verro/internal/exp"
	"verro/internal/img"
)

func sampleData(t *testing.T) *Data {
	t.Helper()
	dir := t.TempDir()
	png := dir + "/frame.png"
	if err := img.NewFilled(8, 8, img.RGB{R: 200, G: 10, B: 10}).WritePNG(png); err != nil {
		t.Fatal(err)
	}
	return &Data{
		Title: "test report",
		Table1: []exp.Table1Row{
			{Video: "MOT01", Resolution: "384x216", Frames: 450, Objects: 23, Camera: "static"},
		},
		Table2: []exp.Table2Row{
			{Video: "MOT01", Frames: 450, Objects: 23, KeyFrames: 23, Remaining: 20},
		},
		Table3: []exp.Table3Row{
			{Video: "MOT01", Phase1: time.Millisecond, Phase2: 25 * time.Millisecond,
				Preprocess: time.Second, BandwidthMB: 1.28},
		},
		Fig5: map[string][]exp.Fig5Point{
			"MOT01": {
				{F: 0.1, Original: 23, Opt: 20, RR: 20, DevBefore: 0.97, DevAfter: 0.44},
			},
		},
		Attacks: []*exp.AttackRow{
			{Video: "MOT01", Targets: 23, Identity: 1, Blur: 1, Verro: 0.1, Random: 0.04, F: 0.1},
		},
		Baselines: []*exp.BaselineResult{
			{Video: "MOT01", Objects: 23, Epsilon: 61.8, NaiveOnesFrac: 0.48,
				NaiveCountMAE: 5.2, VerroRetained: 20, VerroCountMAE: 0.9, TrueOnesFrac: 0.26},
		},
		Frames: map[string]string{"MOT01 input": png},
	}
}

func TestRender(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, sampleData(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"test report", "Table 1", "Table 2", "Table 3",
		"Figure 5", "MOT01", "Re-identification", "Baseline",
		"data:image/png;base64,",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestRenderEmptySections(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, &Data{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "Table 1") {
		t.Fatal("empty data should omit sections")
	}
	if !strings.Contains(out, "VERRO experiment report") {
		t.Fatal("default title missing")
	}
}

func TestRenderMissingFrameFile(t *testing.T) {
	d := &Data{Frames: map[string]string{"x": "/nonexistent/file.png"}}
	if err := Render(&bytes.Buffer{}, d); err == nil {
		t.Fatal("missing PNG should fail")
	}
}

func TestSave(t *testing.T) {
	path := t.TempDir() + "/sub/report.html"
	if err := Save(path, sampleData(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
