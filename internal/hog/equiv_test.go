package hog

// Bit-identity check for the flat-buffer/row-sliced Compute rewrite: a
// naive reference (per-cell allocation, per-pixel indexing, allocating
// L2-Hys) must produce the exact same descriptor, since the rewrite only
// restructured memory layout, never the arithmetic or its order.

import (
	"fmt"
	"math"
	"testing"

	"verro/internal/img"
)

func computeRef(m *img.Image, c Config) ([]float64, error) {
	wantLen, err := c.FeatureLen(m.W, m.H)
	if err != nil {
		return nil, err
	}
	gx, gy := m.Gradients()
	cellsX := m.W / c.CellSize
	cellsY := m.H / c.CellSize

	cells := make([][]float64, cellsX*cellsY)
	for i := range cells {
		cells[i] = make([]float64, c.Bins)
	}
	binWidth := 180.0 / float64(c.Bins)
	for y := 0; y < cellsY*c.CellSize; y++ {
		for x := 0; x < cellsX*c.CellSize; x++ {
			i := y*m.W + x
			mag := math.Hypot(gx[i], gy[i])
			if mag == 0 {
				continue
			}
			ang := math.Atan2(gy[i], gx[i]) * 180 / math.Pi
			if ang < 0 {
				ang += 180
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
			hist := cells[(y/c.CellSize)*cellsX+x/c.CellSize]
			hist[loBin] += mag * (1 - frac)
			hist[hiBin] += mag * frac
		}
	}

	blocksX := (cellsX-c.BlockSize)/c.BlockStride + 1
	blocksY := (cellsY-c.BlockSize)/c.BlockStride + 1
	var out []float64
	for by := 0; by < blocksY; by++ {
		for bx := 0; bx < blocksX; bx++ {
			var block []float64
			for cy := 0; cy < c.BlockSize; cy++ {
				for cx := 0; cx < c.BlockSize; cx++ {
					cell := cells[(by*c.BlockStride+cy)*cellsX+(bx*c.BlockStride+cx)]
					block = append(block, cell...)
				}
			}
			// Allocating L2-Hys, same arithmetic as l2hysInto.
			norm := l2(block) + 1e-6
			normed := make([]float64, len(block))
			for i, v := range block {
				normed[i] = math.Min(v/norm, 0.2)
			}
			norm = l2(normed) + 1e-6
			for i := range normed {
				normed[i] /= norm
			}
			out = append(out, normed...)
		}
	}
	if len(out) != wantLen {
		return nil, fmt.Errorf("reference length %d != %d", len(out), wantLen)
	}
	return out, nil
}

func noiseImage(w, h int, seed uint64) *img.Image {
	m := img.New(w, h)
	m.VerticalGradient(img.RGB{R: 40, G: 60, B: 90}, img.RGB{R: 200, G: 180, B: 120})
	m.AddNoise(25, seed)
	return m
}

func TestComputeEquiv(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(),
		{CellSize: 8, BlockSize: 2, BlockStride: 2, Bins: 6},
		{CellSize: 4, BlockSize: 3, BlockStride: 1, Bins: 9},
	}
	for ci, c := range cfgs {
		for _, d := range []struct{ w, h int }{{64, 128}, {33, 47}} {
			m := noiseImage(d.w, d.h, uint64(ci+1))
			got, err := Compute(m, c)
			if err != nil {
				t.Fatalf("cfg %d %dx%d: Compute: %v", ci, d.w, d.h, err)
			}
			want, err := computeRef(m, c)
			if err != nil {
				t.Fatalf("cfg %d %dx%d: computeRef: %v", ci, d.w, d.h, err)
			}
			if len(got) != len(want) {
				t.Fatalf("cfg %d %dx%d: len %d != %d", ci, d.w, d.h, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cfg %d %dx%d: feature[%d]: got %v want %v", ci, d.w, d.h, i, got[i], want[i])
				}
			}
		}
	}
}
