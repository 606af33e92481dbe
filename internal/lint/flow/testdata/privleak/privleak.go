// Package privleak is the fixture for the raw-data-to-published-output
// analyzer: every line producing a diagnostic carries a `// want` comment,
// and the clean flows document what sanitization and declassification
// permit.
package privleak

import (
	"verro/internal/core"
	"verro/internal/metrics"
	"verro/internal/motio"
	"verro/internal/par"
	"verro/internal/scene"
)

// Direct leak: the ground-truth tracks straight into a CSV file.
func leakTruth(g *scene.Generated) error {
	return g.Truth.SaveCSV("truth.csv") // want "raw object data reaches track CSV file \(motio\.TrackSet\)\.SaveCSV without passing a sanitizer"
}

// Taint survives local aliasing and control flow; the Len() guard is a
// declassified read and stays clean.
func leakViaLocal(g *scene.Generated) error {
	t := g.Truth
	u := t
	if u.Len() > 0 {
		return u.SaveCSV("alias.csv") // want "raw object data reaches track CSV file \(motio\.TrackSet\)\.SaveCSV without passing a sanitizer"
	}
	return nil
}

// A helper that only sinks its parameter is silent at its own sink; the
// leak is reported where the raw value is handed over, qualified with the
// helper's name.
func persist(t *motio.TrackSet) error {
	return t.SaveCSV("persist.csv")
}

func leakViaHelper(g *scene.Generated) error {
	return persist(g.Truth) // want "raw object data reaches track CSV file \(motio\.TrackSet\)\.SaveCSV \(via lint/flow/testdata/privleak\.persist\) without passing a sanitizer"
}

// Raw trajectories accumulated into a series table taint the table, and
// the table's writer flags.
func leakTable(g *scene.Generated, xs []float64) error {
	tab := motio.NewSeriesTable("frame", xs)
	var ys []float64
	for _, tr := range g.Truth.Tracks {
		_, centers := tr.Trajectory()
		for _, c := range centers {
			ys = append(ys, c.X, c.Y)
		}
	}
	if err := tab.AddColumn("orig", ys); err != nil {
		return err
	}
	return tab.SaveCSV("table.csv") // want "raw object data reaches series CSV file \(motio\.SeriesTable\)\.SaveCSV without passing a sanitizer"
}

// Taint flows through the worker pool: par.Map results carry the closure's
// return taint.
func leakParallel(g *scene.Generated) error {
	rows := par.Map(g.Truth.Len(), 1, func(i int) *motio.Track {
		return g.Truth.Tracks[i]
	})
	out := motio.NewTrackSet()
	for _, tr := range rows {
		out.Add(tr)
	}
	return out.SaveCSV("rows.csv") // want "raw object data reaches track CSV file \(motio\.TrackSet\)\.SaveCSV without passing a sanitizer"
}

// The sanitizer's outputs are clean: publishing the synthetic video's
// tracks is the whole point of the pipeline.
func sanitized(g *scene.Generated, cfg core.Config) error {
	res, err := core.Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		return err
	}
	return res.SyntheticTracks.SaveCSV("synthetic.csv")
}

// Declassified aggregates (the paper's published metrics) are clean even
// though they are computed from raw inputs.
func declassified(g *scene.Generated, syn *motio.TrackSet, xs []float64) error {
	dev := metrics.TrajectoryDeviation(g.Truth, syn)
	tab := motio.NewSeriesTable("frame", xs)
	if err := tab.AddColumn("deviation", []float64{dev}); err != nil {
		return err
	}
	return tab.SaveCSV("metrics.csv")
}

// The directive suppresses a finding at its line, as everywhere else in
// the suite.
func allowed(g *scene.Generated) error {
	//lint:allow privleak fixture documents the suppression path
	return g.Truth.SaveCSV("allowed.csv")
}
