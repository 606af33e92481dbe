package exp

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"

	"verro/internal/core"
	"verro/internal/img"
	"verro/internal/interp"
	"verro/internal/metrics"
	"verro/internal/motio"
	"verro/internal/obs"
)

// Fig5Point is one x-position of the Figure 5 curves for one video:
// distinct-object retention (a/c/e) and trajectory deviation before/after
// Phase II (b/d/f).
type Fig5Point struct {
	F         float64
	Original  float64
	Opt       float64
	RR        float64
	DevBefore float64
	DevAfter  float64
}

// Fig5 sweeps the flip probability and evaluates Phase I retention and
// Phase II deviation, averaging RR-dependent quantities over opt.Trials.
func Fig5(d *Dataset, fs []float64, trials int, seed int64) ([]Fig5Point, error) {
	if trials < 1 {
		trials = 1
	}
	var out []Fig5Point
	for fi, f := range fs {
		rng := rand.New(rand.NewSource(seed + int64(fi)*1000))
		pt := Fig5Point{F: f, Original: float64(d.Tracks.Len())}
		var rrSum, devB, devA float64
		for t := 0; t < trials; t++ {
			p1, err := d.phase1(f, true, rng)
			if err != nil {
				return nil, err
			}
			if t == 0 {
				pt.Opt = float64(core.DistinctPresent(p1.Optimal))
			}
			rrSum += float64(core.TruthfulPresent(p1.Output, p1.Optimal))

			p2, err := core.RunPhase2(p1, d.KF, d.Tracks, nil,
				d.Gen.Video.W, d.Gen.Video.H, d.Gen.Video.Len(),
				core.Phase2Config{Interp: interp.MethodLagrange, SkipRender: true}, rng, obs.Runtime{})
			if err != nil {
				return nil, err
			}
			devB += metrics.SamplesDeviation(d.Tracks, p2.Assigned)
			// The Figure 5 deviation follows the paper's formula literally:
			// P(O_i, F*_k) is the position of the synthetic object generated
			// from O_i (the index mapping), so randomization at larger f
			// drives the curve up. The library's assignment-based
			// TrajectoryDeviation answers the complementary question "does a
			// similar trajectory exist at all".
			devA += metrics.IndexedTrajectoryDeviation(d.Tracks, p2.Tracks)
		}
		pt.RR = rrSum / float64(trials)
		pt.DevBefore = devB / float64(trials)
		pt.DevAfter = devA / float64(trials)
		out = append(out, pt)
	}
	return out, nil
}

// Fig5Table converts Fig5 points into the CSV series layout.
func Fig5Table(points []Fig5Point) (*motio.SeriesTable, error) {
	x := make([]float64, len(points))
	orig := make([]float64, len(points))
	opt := make([]float64, len(points))
	rr := make([]float64, len(points))
	devB := make([]float64, len(points))
	devA := make([]float64, len(points))
	for i, p := range points {
		x[i], orig[i], opt[i], rr[i], devB[i], devA[i] =
			p.F, p.Original, p.Opt, p.RR, p.DevBefore, p.DevAfter
	}
	t := motio.NewSeriesTable("f", x)
	cols := []struct {
		name    string
		samples []float64
	}{
		{"original", orig},
		{"opt", opt},
		{"rr", rr},
		{"dev_before_phase2", devB},
		{"dev_after_phase2", devA},
	}
	for _, c := range cols {
		if err := t.AddColumn(c.name, c.samples); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// PrintFig5 renders the sweep as text.
func PrintFig5(w io.Writer, video string, points []Fig5Point) {
	fmt.Fprintf(w, "Figure 5 (%s): Phase I retention and Phase II deviation vs f\n", video)
	fmt.Fprintf(w, "%6s %9s %7s %7s %11s %10s\n", "f", "original", "opt", "rr", "dev-before", "dev-after")
	for _, p := range points {
		fmt.Fprintf(w, "%6.2f %9.0f %7.0f %7.1f %11.3f %10.3f\n",
			p.F, p.Original, p.Opt, p.RR, p.DevBefore, p.DevAfter)
	}
}

// TrajectoryFig holds the Figures 6-8 data: original and synthetic
// trajectories of selected objects at several flip probabilities.
type TrajectoryFig struct {
	Video string
	// Objects are the sampled original object indices.
	Objects []int
	// Series maps "orig-<id>" / "synth-f<f>-<id>" to (frame, x, y) triples.
	Series map[string][][3]float64
}

// Fig678 samples two objects and extracts their original and synthetic
// trajectories at each f.
func Fig678(d *Dataset, fs []float64, seed int64) (*TrajectoryFig, error) {
	rng := rand.New(rand.NewSource(seed))
	n := d.Tracks.Len()
	if n == 0 {
		return nil, fmt.Errorf("exp: no objects to plot")
	}
	idx1 := rng.Intn(n)
	idx2 := rng.Intn(n)
	for n > 1 && idx2 == idx1 {
		idx2 = rng.Intn(n)
	}
	fig := &TrajectoryFig{
		Video:   d.Preset.Name,
		Objects: []int{idx1, idx2},
		Series:  map[string][][3]float64{},
	}
	for _, i := range fig.Objects {
		tr := d.Tracks.Tracks[i]
		frames, centers := tr.Trajectory()
		series := make([][3]float64, len(frames))
		for j := range frames {
			series[j] = [3]float64{float64(frames[j]), centers[j].X, centers[j].Y}
		}
		fig.Series[fmt.Sprintf("orig-%d", tr.ID)] = series
	}
	for _, f := range fs {
		p1, err := d.phase1(f, true, rng)
		if err != nil {
			return nil, err
		}
		p2, err := core.RunPhase2(p1, d.KF, d.Tracks, nil,
			d.Gen.Video.W, d.Gen.Video.H, d.Gen.Video.Len(),
			core.Phase2Config{Interp: interp.MethodLagrange, SkipRender: true}, rng, obs.Runtime{})
		if err != nil {
			return nil, err
		}
		for _, i := range fig.Objects {
			origID := d.Tracks.Tracks[i].ID
			syn := p2.Tracks.ByID(i + 1)
			key := fmt.Sprintf("synth-f%.1f-%d", f, origID)
			if syn == nil {
				fig.Series[key] = nil // object lost at this f
				continue
			}
			frames, centers := syn.Trajectory()
			series := make([][3]float64, len(frames))
			for j := range frames {
				series[j] = [3]float64{float64(frames[j]), centers[j].X, centers[j].Y}
			}
			fig.Series[key] = series
		}
	}
	return fig, nil
}

// SaveCSVs writes one CSV per series into dir.
func (fig *TrajectoryFig) SaveCSVs(dir string) error {
	for name, series := range fig.Series {
		x := make([]float64, len(series))
		xs := make([]float64, len(series))
		ys := make([]float64, len(series))
		for i, s := range series {
			x[i], xs[i], ys[i] = s[0], s[1], s[2]
		}
		t := motio.NewSeriesTable("frame", x)
		if err := t.AddColumn("x", xs); err != nil {
			return err
		}
		if err := t.AddColumn("y", ys); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.csv", fig.Video, name))
		if err := t.SaveCSV(path); err != nil {
			return err
		}
	}
	return nil
}

// PrintTrajectorySummary lists the extracted series and their lengths in
// sorted order, so the report is byte-identical across runs.
func PrintTrajectorySummary(w io.Writer, fig *TrajectoryFig) {
	fmt.Fprintf(w, "Figures 6-8 (%s): trajectories of objects %v\n", fig.Video, fig.Objects)
	names := make([]string, 0, len(fig.Series))
	for name := range fig.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-22s %4d points\n", name, len(fig.Series[name]))
	}
}

// Fig91011 renders the representative frames of Figures 9-11 for one
// dataset: the input frame, the background scene the sanitizer rendered
// over (taken from the first run), and the synthetic frames at each f. PNGs
// are written into dir when non-empty. It returns the written paths by
// panel tag.
func Fig91011(d *Dataset, frame int, fs []float64, seed int64, dir string) (map[string]string, error) {
	if frame < 0 || frame >= d.Gen.Video.Len() {
		return nil, fmt.Errorf("exp: frame %d out of range", frame)
	}
	if len(fs) == 0 {
		return nil, fmt.Errorf("exp: Figures 9-11 need at least one flip probability")
	}
	files := map[string]string{}

	// Figures 9-11's left panel is the raw input frame — the unsanitized
	// half of the published side-by-side comparison, by the paper's design.
	//lint:allow privleak input panel of Fig 9-11 is deliberately the raw frame
	if err := writeFigPNG(dir, d.Preset.Name, frame, "input", d.Gen.Video.Frame(frame), files); err != nil {
		return nil, err
	}

	for i, f := range fs {
		cfg := d.SanitizerConfig(f, seed, true)
		res, err := core.Sanitize(d.Gen.Video, d.Tracks, cfg)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			// The middle panel: the reconstructed background every run
			// renders over (it does not depend on f or the seed).
			bg, err := res.Scenes.Background(frame)
			if err != nil {
				return nil, err
			}
			if err := writeFigPNG(dir, d.Preset.Name, frame, "background", bg, files); err != nil {
				return nil, err
			}
		}
		if err := writeFigPNG(dir, d.Preset.Name, frame, fmt.Sprintf("synthetic-f%.1f", f), res.Synthetic.Frame(frame), files); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// writeFigPNG renders one panel of Figures 9-11 into dir (a no-op when dir
// is empty) and records the written path in files. It is a named function
// rather than the closure it used to be so that verroflow's per-function
// summaries can see the WritePNG sink through it — calls through a
// closure-typed local are a documented blind spot of the taint engine.
func writeFigPNG(dir, preset string, frame int, tag string, im *img.Image, files map[string]string) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-frame%d-%s.png", preset, frame, tag))
	if err := im.WritePNG(path); err != nil {
		return err
	}
	files[tag] = path
	return nil
}

// Fig12 computes object counts in the optimized (picked) key frames after
// Phase I: original counts versus randomized counts at each f.
func Fig12(d *Dataset, fs []float64, seed int64) (*motio.SeriesTable, error) {
	rng := rand.New(rand.NewSource(seed))
	// Use the f=first run to fix the picked set; Phase I picking is
	// deterministic given counts, so picked frames coincide across fs
	// unless f moves the optimum slightly — we report per-f counts over
	// each run's own picked frames projected onto all key frames.
	ell := len(d.KF.KeyFrames)
	x := make([]float64, ell)
	for j, k := range d.KF.KeyFrames {
		x[j] = float64(k)
	}
	t := motio.NewSeriesTable("keyframe", x)
	origCounts := core.KeyFrameCounts(d.Reduced)
	if origCounts == nil {
		origCounts = make([]int, ell)
	}
	if err := t.AddColumn("original", motio.IntsToFloats(origCounts)); err != nil {
		return nil, err
	}
	for _, f := range fs {
		p1, err := d.phase1(f, true, rng)
		if err != nil {
			return nil, err
		}
		counts := core.KeyFrameCounts(p1.Output)
		if counts == nil {
			counts = make([]int, ell)
		}
		if err := t.AddColumn(fmt.Sprintf("f=%.1f", f), motio.IntsToFloats(counts)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig13 computes per-frame object counts in the synthetic videos (after
// Phase II) against the original video.
func Fig13(d *Dataset, fs []float64, seed int64) (*motio.SeriesTable, error) {
	rng := rand.New(rand.NewSource(seed))
	m := d.Gen.Video.Len()
	x := make([]float64, m)
	for k := range x {
		x[k] = float64(k)
	}
	t := motio.NewSeriesTable("frame", x)
	if err := t.AddColumn("original", motio.IntsToFloats(d.Tracks.CountSeries(m))); err != nil {
		return nil, err
	}
	for _, f := range fs {
		p1, err := d.phase1(f, true, rng)
		if err != nil {
			return nil, err
		}
		p2, err := core.RunPhase2(p1, d.KF, d.Tracks, nil,
			d.Gen.Video.W, d.Gen.Video.H, m,
			core.Phase2Config{Interp: interp.MethodLagrange, SkipRender: true}, rng, obs.Runtime{})
		if err != nil {
			return nil, err
		}
		if err := t.AddColumn(fmt.Sprintf("f=%.1f", f), motio.IntsToFloats(p2.Tracks.CountSeries(m))); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// PrintCountSummary renders a count-series table as summary statistics
// (MAE and correlation of each column against the first).
func PrintCountSummary(w io.Writer, title string, t *motio.SeriesTable) {
	fmt.Fprintln(w, title)
	if len(t.Cols) == 0 {
		return
	}
	ref := toInts(t.Cols[0].Samples)
	for _, c := range t.Cols[1:] {
		cur := toInts(c.Samples)
		fmt.Fprintf(w, "  %-10s MAE=%.3f corr=%.3f\n",
			c.Name, metrics.CountMAE(ref, cur), metrics.CountCorrelation(ref, cur))
	}
}

func toInts(xs []float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x + 0.5)
	}
	return out
}
