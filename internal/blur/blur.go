// Package blur implements the traditional detect-and-blur privacy model
// the paper argues against (Section 2.2.1): every detected object region is
// blurred (box blur) or pixelated in place. Object trajectories, timing and
// coarse colors remain visible — which is exactly the weakness the
// re-identification attack in package attack quantifies.
package blur

import (
	"errors"
	"fmt"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/motio"
	"verro/internal/vid"
)

// Mode selects the obfuscation applied to object regions.
type Mode int

// Obfuscation modes.
const (
	// ModeBlur applies an iterated box blur.
	ModeBlur Mode = iota
	// ModePixelate replaces each cell of a coarse grid by its mean color.
	ModePixelate
	// ModeBlackout paints the region black (maximal traditional privacy).
	ModeBlackout
)

// Config tunes the sanitizer.
type Config struct {
	Mode Mode
	// Radius is the blur kernel radius (ModeBlur) or the pixel-cell size
	// (ModePixelate). 0 means 3.
	Radius int
	// Passes is the number of blur iterations (ModeBlur); 0 means 2.
	Passes int
	// Dilate grows every object box by this many pixels before obfuscation.
	Dilate int
}

// DefaultConfig blurs with radius 3, two passes, and a 2px margin.
func DefaultConfig() Config {
	return Config{Mode: ModeBlur, Radius: 3, Passes: 2, Dilate: 2}
}

// ErrEmptyVideo is returned for videos with no frames.
var ErrEmptyVideo = errors.New("blur: empty video")

// Sanitize returns a copy of v with every tracked object region obfuscated
// in every frame it appears in. The input is not modified.
func Sanitize(v *vid.Video, tracks *motio.TrackSet, cfg Config) (*vid.Video, error) {
	if v == nil || v.Len() == 0 {
		return nil, ErrEmptyVideo
	}
	if tracks == nil {
		return nil, errors.New("blur: nil tracks")
	}
	if cfg.Radius <= 0 {
		cfg.Radius = 3
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 2
	}

	out := vid.New(v.Name+"-blur", v.W, v.H, v.FPS)
	out.Moving = v.Moving
	for k := 0; k < v.Len(); k++ {
		frame := v.Frame(k).Clone()
		for _, t := range tracks.Tracks {
			b, ok := t.Box(k)
			if !ok {
				continue
			}
			if cfg.Dilate > 0 {
				b = geom.Rect{
					Min: geom.Pt(b.Min.X-cfg.Dilate, b.Min.Y-cfg.Dilate),
					Max: geom.Pt(b.Max.X+cfg.Dilate, b.Max.Y+cfg.Dilate),
				}
			}
			b = b.Clip(frame.Bounds())
			if b.Empty() {
				continue
			}
			switch cfg.Mode {
			case ModePixelate:
				pixelate(frame, b, cfg.Radius)
			case ModeBlackout:
				frame.Fill(b, img.RGB{})
			default:
				for p := 0; p < cfg.Passes; p++ {
					boxBlur(frame, b, cfg.Radius)
				}
			}
		}
		if err := out.Append(frame); err != nil {
			return nil, fmt.Errorf("blur: frame %d: %w", k, err)
		}
	}
	return out, nil
}

// boxBlur applies one pass of a (2r+1)² box blur inside region b, sampling
// from a snapshot so the blur is unbiased.
func boxBlur(m *img.Image, b geom.Rect, r int) {
	if r < 0 {
		return
	}
	// The kernel covers (2r+1)² samples regardless of clamping, so the
	// divisor is loop-invariant (and provably positive for r ≥ 0).
	side := 2*r + 1
	n := side * side
	src := m.SubImage(b.Clip(m.Bounds()))
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			var sr, sg, sb int
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					// Sample from the snapshot, clamped to the region.
					sx := geom.Clamp(x+dx-b.Min.X, 0, src.W-1)
					sy := geom.Clamp(y+dy-b.Min.Y, 0, src.H-1)
					c := src.At(sx, sy)
					sr += int(c.R)
					sg += int(c.G)
					sb += int(c.B)
				}
			}
			m.Set(x, y, img.RGB{R: uint8(sr / n), G: uint8(sg / n), B: uint8(sb / n)})
		}
	}
}

// pixelate replaces each cell×cell block of region b by its mean color.
func pixelate(m *img.Image, b geom.Rect, cell int) {
	if cell < 2 {
		cell = 2
	}
	for y0 := b.Min.Y; y0 < b.Max.Y; y0 += cell {
		for x0 := b.Min.X; x0 < b.Max.X; x0 += cell {
			block := geom.R(x0, y0, min(x0+cell, b.Max.X), min(y0+cell, b.Max.Y))
			var sr, sg, sb, n int
			for y := block.Min.Y; y < block.Max.Y; y++ {
				for x := block.Min.X; x < block.Max.X; x++ {
					c := m.At(x, y)
					sr += int(c.R)
					sg += int(c.G)
					sb += int(c.B)
					n++
				}
			}
			if n == 0 {
				continue
			}
			m.Fill(block, img.RGB{R: uint8(sr / n), G: uint8(sg / n), B: uint8(sb / n)})
		}
	}
}
