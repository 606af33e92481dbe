package motio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Series is a named column of float64 samples; SeriesTable groups aligned
// columns under an x-axis, which is how the figure harness materializes the
// paper's plots (Figure 5, 12, 13 and the trajectory figures 6-8).
type Series struct {
	Name    string
	Samples []float64
}

// SeriesTable is a set of aligned series over a common x column.
type SeriesTable struct {
	XName string
	X     []float64
	Cols  []Series
}

// NewSeriesTable returns a table with the given x axis.
func NewSeriesTable(xName string, x []float64) *SeriesTable {
	return &SeriesTable{XName: xName, X: x}
}

// AddColumn appends a column; its length must match the x axis.
func (t *SeriesTable) AddColumn(name string, samples []float64) error {
	if len(samples) != len(t.X) {
		return fmt.Errorf("motio: column %q has %d samples, x has %d", name, len(samples), len(t.X))
	}
	t.Cols = append(t.Cols, Series{Name: name, Samples: samples})
	return nil
}

// WriteCSV serializes the table with a header row.
func (t *SeriesTable) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	headers := []string{t.XName}
	for _, c := range t.Cols {
		headers = append(headers, c.Name)
	}
	if _, err := fmt.Fprintln(bw, strings.Join(headers, ",")); err != nil {
		return err
	}
	for i := range t.X {
		row := []string{formatFloat(t.X[i])}
		for _, c := range t.Cols {
			row = append(row, formatFloat(c.Samples[i]))
		}
		if _, err := fmt.Fprintln(bw, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveCSV writes the table to a file, creating parent directories.
func (t *SeriesTable) SaveCSV(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 10, 64)
}

// IntsToFloats converts an int slice to float64 for series columns.
func IntsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
