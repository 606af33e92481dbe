// Package hog implements histogram-of-oriented-gradients descriptors
// (Dalal-Triggs style), the feature representation behind the paper's
// pedestrian detector [51]: gradients are binned by unsigned orientation
// into cell histograms, which are grouped into overlapping blocks and
// L2-Hys normalized.
package hog

import (
	"errors"
	"fmt"
	"math"

	"verro/internal/geom"
	"verro/internal/img"
)

// Config describes the descriptor geometry.
type Config struct {
	CellSize    int // pixels per cell side
	BlockSize   int // cells per block side
	BlockStride int // cells between consecutive blocks
	Bins        int // orientation bins over [0, 180)
}

// DefaultConfig matches the classic 8px cells / 2×2-cell blocks / 9 bins
// pedestrian descriptor, scaled down slightly for the low-resolution
// synthetic videos (4px cells keep windows of ~16×32 meaningful).
func DefaultConfig() Config {
	return Config{CellSize: 4, BlockSize: 2, BlockStride: 1, Bins: 9}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CellSize <= 0 || c.BlockSize <= 0 || c.BlockStride <= 0 || c.Bins <= 0 {
		return fmt.Errorf("hog: non-positive parameter in %+v", c)
	}
	return nil
}

// FeatureLen returns the descriptor length for a w×h window, or an error if
// the window is too small for a single block.
func (c Config) FeatureLen(w, h int) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	cellsX := w / c.CellSize
	cellsY := h / c.CellSize
	blocksX := (cellsX-c.BlockSize)/c.BlockStride + 1
	blocksY := (cellsY-c.BlockSize)/c.BlockStride + 1
	if blocksX <= 0 || blocksY <= 0 {
		return 0, fmt.Errorf("hog: window %dx%d too small for config %+v", w, h, c)
	}
	return blocksX * blocksY * c.BlockSize * c.BlockSize * c.Bins, nil
}

// ErrWindow reports a window that does not fit the descriptor geometry.
var ErrWindow = errors.New("hog: bad window")

// Compute extracts the HOG descriptor of the whole image m.
func Compute(m *img.Image, c Config) ([]float64, error) {
	wantLen, err := c.FeatureLen(m.W, m.H)
	if err != nil {
		return nil, err
	}

	gx, gy := m.Gradients()
	cellsX := m.W / c.CellSize
	cellsY := m.H / c.CellSize

	// Cell histograms with bilinear orientation binning. The histograms
	// share one flat backing buffer; a per-cell make would allocate
	// cellsX*cellsY times.
	cells := make([][]float64, cellsX*cellsY)
	cellBuf := make([]float64, len(cells)*c.Bins)
	for i := range cells {
		cells[i] = cellBuf[i*c.Bins : (i+1)*c.Bins]
	}
	binWidth := 180.0 / float64(c.Bins)
	for y := 0; y < cellsY*c.CellSize; y++ {
		rowOff := y * m.W
		cellRow := cells[(y/c.CellSize)*cellsX : (y/c.CellSize)*cellsX+cellsX]
		for cx, hist := range cellRow {
			off := rowOff + cx*c.CellSize
			cgx := gx[off : off+c.CellSize]
			cgy := gy[off : off+c.CellSize]
			k := len(cgx)
			if len(cgy) < k {
				k = len(cgy)
			}
			for px := 0; px < k; px++ {
				mag := math.Hypot(cgx[px], cgy[px])
				if mag == 0 {
					continue
				}
				ang := math.Atan2(cgy[px], cgx[px]) * 180 / math.Pi // (-180, 180]
				if ang < 0 {
					ang += 180 // unsigned orientation
				}
				if ang >= 180 {
					ang -= 180
				}
				pos := ang/binWidth - 0.5
				lo := int(math.Floor(pos))
				frac := pos - float64(lo)
				hi := lo + 1
				loBin := ((lo % c.Bins) + c.Bins) % c.Bins
				hiBin := hi % c.Bins
				hist[loBin] += mag * (1 - frac)
				hist[hiBin] += mag * frac
			}
		}
	}

	// Blocks with L2-Hys normalization.
	blocksX := (cellsX-c.BlockSize)/c.BlockStride + 1
	blocksY := (cellsY-c.BlockSize)/c.BlockStride + 1
	out := make([]float64, 0, wantLen)
	block := make([]float64, c.BlockSize*c.BlockSize*c.Bins)
	normed := make([]float64, len(block))
	for by := 0; by < blocksY; by++ {
		for bx := 0; bx < blocksX; bx++ {
			block = block[:0]
			for cy := 0; cy < c.BlockSize; cy++ {
				start := (by*c.BlockStride+cy)*cellsX + bx*c.BlockStride
				for _, cell := range cells[start : start+c.BlockSize] {
					block = append(block, cell...)
				}
			}
			l2hysInto(normed, block)
			out = append(out, normed...)
		}
	}
	if len(out) != wantLen {
		return nil, fmt.Errorf("hog: internal length mismatch %d != %d", len(out), wantLen)
	}
	return out, nil
}

// ComputeWindow extracts the descriptor of a sub-window by copying it out;
// windows outside the image are clamped by SubImage semantics.
func ComputeWindow(m *img.Image, x, y, w, h int, c Config) ([]float64, error) {
	if x < 0 || y < 0 || x+w > m.W || y+h > m.H {
		return nil, fmt.Errorf("%w: (%d,%d,%d,%d) outside %dx%d", ErrWindow, x, y, w, h, m.W, m.H)
	}
	sub := m.SubImage(geom.RectAt(x, y, w, h))
	return Compute(sub, c)
}

// l2hysInto applies L2 normalization, clipping at 0.2, and renormalization,
// writing into the caller's equally-sized buffer so the per-block loop does
// not allocate.
func l2hysInto(dst, v []float64) {
	n := len(dst)
	if len(v) < n {
		n = len(v)
	}
	norm := l2(v) + 1e-6
	for i := 0; i < n; i++ {
		dst[i] = math.Min(v[i]/norm, 0.2)
	}
	norm = l2(dst) + 1e-6
	for i := range dst {
		dst[i] /= norm
	}
}

func l2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
