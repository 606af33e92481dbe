package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"verro/internal/obs"
	"verro/internal/scene"
)

// tinyOptions shrinks everything so experiment plumbing tests stay fast.
func tinyOptions() Options {
	return Options{Scale: 0.08, Trials: 2, Seed: 1}
}

func loadTiny(t *testing.T, preset scene.Preset) *Dataset {
	t.Helper()
	d, err := LoadDataset(preset, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLoadDataset(t *testing.T) {
	d := loadTiny(t, scene.MOT01())
	if d.Gen.Video.Len() == 0 || d.Tracks.Len() == 0 {
		t.Fatal("dataset empty")
	}
	if len(d.KF.KeyFrames) < 2 {
		t.Fatalf("key frames = %d", len(d.KF.KeyFrames))
	}
	if len(d.Reduced) != d.Tracks.Len() {
		t.Fatal("reduced vectors mismatch")
	}
	if d.Gen.CleanBackground != nil {
		t.Fatal("clean background should be dropped to save memory")
	}
}

// paperKeyFrames is the ℓ reported in the paper's Table 2, the key-frame
// count that segmentCap's ratios reproduce at full scale.
var paperKeyFrames = map[string]int{
	"MOT01": 22,
	"MOT03": 52,
	"MOT06": 48,
}

func TestKeyframeConfigForTargetsPaperCounts(t *testing.T) {
	for _, p := range scene.Presets() {
		cfg := KeyframeConfigFor(p)
		want := paperKeyFrames[p.Name]
		approxKF := p.Frames / cfg.MaxSegmentLen
		if approxKF < want-3 { // cap guarantees at least ~target segments
			t.Errorf("%s: cap %d yields ~%d key frames, want >= %d",
				p.Name, cfg.MaxSegmentLen, approxKF, want)
		}
	}
	// Scaled presets keep the density, not the absolute count.
	full := KeyframeConfigFor(scene.MOT01())
	scaled := KeyframeConfigFor(scene.MOT01().Scaled(0.25))
	if scaled.MaxSegmentLen > full.MaxSegmentLen {
		t.Fatalf("scaling should not lengthen segments: %d > %d",
			scaled.MaxSegmentLen, full.MaxSegmentLen)
	}
	// Unknown preset gets a sane fallback.
	cfg := KeyframeConfigFor(scene.Preset{Name: "other", Frames: 100})
	if cfg.MaxSegmentLen < 1 {
		t.Fatal("fallback cap invalid")
	}
}

func TestTable1And2(t *testing.T) {
	d := loadTiny(t, scene.MOT01())
	rows := Table1([]*Dataset{d})
	if len(rows) != 1 || rows[0].Camera != "static" || rows[0].Objects == 0 {
		t.Fatalf("table1 = %+v", rows)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("missing table header")
	}

	r2 := Table2(d)
	if r2.KeyFrames < 2 || r2.Remaining == 0 || r2.Remaining > r2.Objects {
		t.Fatalf("table2 = %+v", r2)
	}
	buf.Reset()
	PrintTable2(&buf, []Table2Row{r2})
	if !strings.Contains(buf.String(), "Remaining") {
		t.Fatal("missing table2 header")
	}
}

func TestTable3RunsFullPipeline(t *testing.T) {
	d := loadTiny(t, scene.MOT01())
	row, res, err := Table3(d, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if row.BandwidthMB <= 0 {
		t.Fatalf("bandwidth = %v", row.BandwidthMB)
	}
	if res.Synthetic.Len() != d.Gen.Video.Len() {
		t.Fatal("synthetic incomplete")
	}
	// Untraced datasets still get phase times, from a trace of Table3's own.
	if row.Phase1 < 0 || row.Phase2 <= 0 || row.Preprocess <= 0 {
		t.Fatalf("timings not recorded: %+v", row)
	}
	var buf bytes.Buffer
	PrintTable3(&buf, []Table3Row{row})
	if !strings.Contains(buf.String(), "Bandwidth") {
		t.Fatal("missing table3 header")
	}

	// On a traced dataset the run appends its five stage spans under the
	// experiments root, and the row's durations are exactly theirs.
	opt := tinyOptions()
	opt.Trace = obs.NewTrace("experiments")
	d, err = LoadDataset(scene.MOT01(), opt)
	if err != nil {
		t.Fatal(err)
	}
	before := len(opt.Trace.Report().Span.Children)
	if row, _, err = Table3(d, 0.1, 3); err != nil {
		t.Fatal(err)
	}
	added := opt.Trace.Report().Span.Children[before:]
	want := []string{"analysis", "keyframes", "inpaint", "phase1", "phase2"}
	if len(added) != len(want) {
		t.Fatalf("Table3 appended %d root spans, want %v", len(added), want)
	}
	for i, s := range added {
		if s.Name != want[i] {
			t.Fatalf("appended span %d is %q, want %q", i, s.Name, want[i])
		}
	}
	dur := func(i int) time.Duration { return time.Duration(added[i].DurationNS) }
	if row.Preprocess != dur(0)+dur(1)+dur(2) || row.Phase1 != dur(3) || row.Phase2 != dur(4) {
		t.Fatalf("row %+v does not match the stage spans %v %v %v %v %v",
			row, dur(0), dur(1), dur(2), dur(3), dur(4))
	}
}

func TestFig5ShapesMatchPaper(t *testing.T) {
	d := loadTiny(t, scene.MOT01())
	points, err := Fig5(d, []float64{0.1, 0.5, 0.9}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Opt > p.Original {
			t.Fatalf("OPT retained more than original: %+v", p)
		}
		// The paper's headline contrast: deviation drops sharply after
		// Phase II interpolation.
		if p.DevAfter >= p.DevBefore {
			t.Fatalf("Phase II should reduce deviation: %+v", p)
		}
		if p.DevBefore < 0.5 {
			t.Fatalf("before-Phase-II deviation should be high: %+v", p)
		}
	}
	tab, err := Fig5Table(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cols) != 5 {
		t.Fatalf("fig5 table cols = %d", len(tab.Cols))
	}
	var buf bytes.Buffer
	PrintFig5(&buf, d.Preset.Name, points)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("missing fig5 header")
	}
}

func TestFig678(t *testing.T) {
	d := loadTiny(t, scene.MOT01())
	fig, err := Fig678(d, []float64{0.1, 0.9}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Objects) != 2 {
		t.Fatalf("objects = %v", fig.Objects)
	}
	// Original series must exist and be non-empty.
	origs := 0
	for name, s := range fig.Series {
		if strings.HasPrefix(name, "orig-") {
			origs++
			if len(s) == 0 {
				t.Fatalf("empty original series %s", name)
			}
		}
	}
	if origs == 0 {
		t.Fatal("no original series")
	}
	dir := t.TempDir()
	if err := fig.SaveCSVs(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no CSVs written: %v", err)
	}
	var buf bytes.Buffer
	PrintTrajectorySummary(&buf, fig)
	if buf.Len() == 0 {
		t.Fatal("no summary")
	}
}

func TestFig91011WritesPNGs(t *testing.T) {
	d := loadTiny(t, scene.MOT01())
	dir := t.TempDir()
	files, err := Fig91011(d, d.Gen.Video.Len()/2, []float64{0.1}, 13, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"input", "background", "synthetic-f0.1"} {
		path, ok := files[tag]
		if !ok {
			t.Fatalf("missing %s output", tag)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("file %s: %v", path, err)
		}
	}
	if _, err := Fig91011(d, -1, []float64{0.1}, 13, dir); err == nil {
		t.Fatal("bad frame index should fail")
	}
	if _, err := Fig91011(d, 0, nil, 13, dir); err == nil {
		t.Fatal("no flip probability should fail")
	}
}

func TestFig12And13(t *testing.T) {
	d := loadTiny(t, scene.MOT01())
	t12, err := Fig12(d, []float64{0.1, 0.9}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(t12.Cols) != 3 { // original + 2 fs
		t.Fatalf("fig12 cols = %d", len(t12.Cols))
	}
	if len(t12.X) != len(d.KF.KeyFrames) {
		t.Fatal("fig12 x axis wrong")
	}

	t13, err := Fig13(d, []float64{0.1, 0.9}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(t13.X) != d.Gen.Video.Len() {
		t.Fatal("fig13 x axis wrong")
	}
	var buf bytes.Buffer
	PrintCountSummary(&buf, "Figure 13", t13)
	if !strings.Contains(buf.String(), "MAE") {
		t.Fatal("missing count summary")
	}
}

func TestBaselineShowsNaiveFailure(t *testing.T) {
	d := loadTiny(t, scene.MOT03())
	r, err := Baseline(d, 0.1, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	// The motivating claim: at matched eps over all frames, naive RR output
	// is near-uniform noise while the true presence is sparse.
	if r.NaiveOnesFrac < 0.3 || r.NaiveOnesFrac > 0.7 {
		t.Fatalf("naive ones fraction = %v, want near 0.5", r.NaiveOnesFrac)
	}
	if r.TrueOnesFrac >= 0.5 {
		t.Fatalf("true ones fraction = %v, expected sparser-than-uniform presence", r.TrueOnesFrac)
	}
	if r.NaiveCountMAE <= r.VerroCountMAE {
		t.Fatalf("naive MAE %v should exceed verro MAE %v", r.NaiveCountMAE, r.VerroCountMAE)
	}
	var buf bytes.Buffer
	PrintBaseline(&buf, r)
	if !strings.Contains(buf.String(), "naive") {
		t.Fatal("missing baseline output")
	}
}

func TestAblation(t *testing.T) {
	d := loadTiny(t, scene.MOT01())
	r, err := Ablation(d, 0.3, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	if r.KFOptRet <= 0 || r.KFOnlyRet <= 0 {
		t.Fatalf("ablation = %+v", r)
	}
	// OPT concentrates budget: its eps should not exceed keyframes-only eps.
	if r.KFOptEps > r.KFOnlyEps+1e-9 {
		t.Fatalf("OPT eps %v should be <= all-keyframes eps %v", r.KFOptEps, r.KFOnlyEps)
	}
	var buf bytes.Buffer
	PrintAblation(&buf, r)
	if buf.Len() == 0 {
		t.Fatal("no ablation output")
	}
}

func TestLoadDatasetWithTrackedObjects(t *testing.T) {
	opt := tinyOptions()
	opt.UseTrackedObjects = true
	d, err := LoadDataset(scene.MOT01(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tracks.Len() == 0 {
		t.Fatal("tracking found no objects")
	}
}

func TestRetentionAtF(t *testing.T) {
	d := loadTiny(t, scene.MOT01())
	r, err := d.Retention(0.2, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	if r.Original != d.Tracks.Len() || r.Opt > r.Original || r.RR < 0 {
		t.Fatalf("retention = %+v", r)
	}
}

func TestLoadDatasetMovingCamera(t *testing.T) {
	d, err := LoadDataset(scene.MOT06(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Gen.Video.Moving {
		t.Fatal("moving flag lost")
	}
	// The full render path (moving background reconstruction) must work.
	if _, _, err := Table3(d, 0.1, 3); err != nil {
		t.Fatal(err)
	}
}
