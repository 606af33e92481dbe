package exp

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"verro/internal/core"
	"verro/internal/obs"
	"verro/internal/vid"
)

// Table1Row is one row of the paper's Table 1 (video characteristics).
type Table1Row struct {
	Video      string
	Resolution string
	Frames     int
	Objects    int
	Camera     string
}

// Table1 summarizes the loaded datasets.
func Table1(ds []*Dataset) []Table1Row {
	rows := make([]Table1Row, 0, len(ds))
	for _, d := range ds {
		cam := "static"
		if d.Preset.Moving {
			cam = "moving"
		}
		rows = append(rows, Table1Row{
			Video:      d.Preset.Name,
			Resolution: fmt.Sprintf("%dx%d", d.Preset.W, d.Preset.H),
			Frames:     d.Gen.Video.Len(),
			Objects:    d.Tracks.Len(),
			Camera:     cam,
		})
	}
	return rows
}

// PrintTable1 renders Table 1 in the paper's layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: Characteristics of Experimental Videos")
	fmt.Fprintf(w, "%-8s %-12s %8s %8s %8s\n", "Video", "Resolution", "Frame#", "Objects", "Camera")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-12s %8d %8d %8s\n", r.Video, r.Resolution, r.Frames, r.Objects, r.Camera)
	}
}

// Table2Row is one row of the paper's Table 2 (distinct objects after key
// frame extraction).
type Table2Row struct {
	Video     string
	Frames    int
	Objects   int
	KeyFrames int
	Remaining int
}

// Table2 computes the key-frame retention row for a dataset.
func Table2(d *Dataset) Table2Row {
	return Table2Row{
		Video:     d.Preset.Name,
		Frames:    d.Gen.Video.Len(),
		Objects:   d.Tracks.Len(),
		KeyFrames: len(d.KF.KeyFrames),
		Remaining: core.PresentInKeyFrames(d.Tracks, d.KF),
	}
}

// PrintTable2 renders Table 2.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: Distinct Objects after Key Frame Extraction")
	fmt.Fprintf(w, "%-8s %8s %9s %11s %11s\n", "Video", "Frame#", "Objects#", "KeyFrame#", "Remaining#")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8d %9d %11d %11d\n", r.Video, r.Frames, r.Objects, r.KeyFrames, r.Remaining)
	}
}

// Table3Row is one row of the paper's Table 3 (overheads).
type Table3Row struct {
	Video       string
	Phase1      time.Duration
	Phase2      time.Duration
	Preprocess  time.Duration
	BandwidthMB float64
}

// Table3 runs a full sanitization (f as in the paper's overhead runs) and
// measures phase runtimes and output bandwidth. The runtimes are the
// durations of the stage spans the run appends under the root of d.Trace
// (or of a trace of its own when d.Trace is nil): Preprocess is
// analysis+keyframes+inpaint, Phase I is phase1 and Phase II is phase2.
func Table3(d *Dataset, f float64, seed int64) (Table3Row, *core.Result, error) {
	cfg := d.SanitizerConfig(f, seed, true)
	if cfg.Trace == nil {
		cfg.Trace = obs.NewTrace("table3")
	}
	before := len(cfg.Trace.Report().Span.Children)
	res, err := core.Sanitize(d.Gen.Video, d.Tracks, cfg)
	if err != nil {
		return Table3Row{}, nil, err
	}
	size, err := vid.EncodedSize(res.Synthetic)
	if err != nil {
		return Table3Row{}, nil, err
	}
	row := Table3Row{Video: d.Preset.Name, BandwidthMB: float64(size) / (1 << 20)}
	for _, s := range cfg.Trace.Report().Span.Children[before:] {
		dur := time.Duration(s.DurationNS)
		switch s.Name {
		case "analysis", "keyframes", "inpaint":
			row.Preprocess += dur
		case "phase1":
			row.Phase1 += dur
		case "phase2":
			row.Phase2 += dur
		}
	}
	return row, res, nil
}

// PrintTable3 renders Table 3.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: Computational and Communication Overheads")
	fmt.Fprintf(w, "%-8s %12s %12s %14s %14s\n", "Video", "PhaseI(s)", "PhaseII(s)", "Preproc(s)", "Bandwidth(MB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12.3f %12.3f %14.3f %14.2f\n",
			r.Video, r.Phase1.Seconds(), r.Phase2.Seconds(), r.Preprocess.Seconds(), r.BandwidthMB)
	}
}

// RetentionAtF reports the Figure 5(a/c/e) counters for one flip
// probability: objects in the original video, after OPT restriction, and
// after random response (averaged over trials).
type RetentionAtF struct {
	F        float64
	Original int
	Opt      int
	RR       float64
}

// Retention computes distinct-object retention at one f.
func (d *Dataset) Retention(f float64, trials int, seed int64) (RetentionAtF, error) {
	rng := rand.New(rand.NewSource(seed))
	out := RetentionAtF{F: f, Original: d.Tracks.Len()}
	var rrSum int
	for t := 0; t < trials; t++ {
		p1, err := d.phase1(f, true, rng)
		if err != nil {
			return out, err
		}
		if t == 0 {
			out.Opt = core.DistinctPresent(p1.Optimal)
		}
		rrSum += core.TruthfulPresent(p1.Output, p1.Optimal)
	}
	if trials > 0 {
		out.RR = float64(rrSum) / float64(trials)
	}
	return out, nil
}
