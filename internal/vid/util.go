package vid

import (
	"errors"
	"image"
	"image/color"
	"image/gif"
	"os"
	"path/filepath"

	"verro/internal/img"
)

// WriteGIF exports the video as an animated GIF (frames quantized to a
// 216-color web-safe cube plus grays), subsampled by frameStep (≥1). The
// GIF delay is derived from FPS and frameStep.
func (v *Video) WriteGIF(path string, frameStep int) error {
	if v.Len() == 0 {
		return errors.New("vid: empty video")
	}
	if frameStep < 1 {
		frameStep = 1
	}
	palette := webSafePalette()
	delay := 4 // default 25 fps
	if v.FPS > 0 {
		delay = int(100 * float64(frameStep) / v.FPS)
		if delay < 2 {
			delay = 2
		}
	}
	anim := &gif.GIF{}
	for i := 0; i < v.Len(); i += frameStep {
		anim.Image = append(anim.Image, quantize(v.Frames[i], palette))
		anim.Delay = append(anim.Delay, delay)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gif.EncodeAll(f, anim); err != nil {
		return err
	}
	return f.Close()
}

// webSafePalette is the 6×6×6 color cube plus 39 grays (255 colors,
// leaving one slot free as GIF requires ≤256).
func webSafePalette() color.Palette {
	p := make(color.Palette, 0, 255)
	for r := 0; r < 6; r++ {
		for g := 0; g < 6; g++ {
			for b := 0; b < 6; b++ {
				p = append(p, color.RGBA{uint8(r * 51), uint8(g * 51), uint8(b * 51), 255})
			}
		}
	}
	for v := 6; v < 255; v += 6 {
		if len(p) >= 255 {
			break
		}
		p = append(p, color.RGBA{uint8(v), uint8(v), uint8(v), 255})
	}
	return p
}

// quantize maps a frame onto the palette.
func quantize(m *img.Image, p color.Palette) *image.Paletted {
	out := image.NewPaletted(image.Rect(0, 0, m.W, m.H), p)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			c := m.At(x, y)
			out.Set(x, y, color.RGBA{c.R, c.G, c.B, 255})
		}
	}
	return out
}
