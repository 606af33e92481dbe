package img

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"os"
	"path/filepath"
)

// ToStdImage converts m to a standard library image.RGBA.
func (m *Image) ToStdImage() *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			c := m.At(x, y)
			out.SetRGBA(x, y, color.RGBA{R: c.R, G: c.G, B: c.B, A: 255})
		}
	}
	return out
}

// EncodePNG writes m as a PNG stream.
func (m *Image) EncodePNG(w io.Writer) error {
	return png.Encode(w, m.ToStdImage())
}

// WritePNG writes m to a PNG file, creating parent directories as needed.
func (m *Image) WritePNG(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("img: create dir for %s: %w", path, err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("img: create %s: %w", path, err)
	}
	defer f.Close()
	if err := m.EncodePNG(f); err != nil {
		return fmt.Errorf("img: encode %s: %w", path, err)
	}
	return f.Close()
}
