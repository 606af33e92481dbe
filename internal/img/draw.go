package img

import (
	"math"

	"verro/internal/geom"
)

// DrawDisc paints a filled disc of the given radius centered at p.
func (m *Image) DrawDisc(p geom.Point, radius int, c RGB) {
	r2 := radius * radius
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx*dx+dy*dy <= r2 {
				m.Set(p.X+dx, p.Y+dy, c)
			}
		}
	}
}

// AddNoise perturbs every pixel channel by a deterministic pseudo-random
// value in [-amp, amp] derived from the coordinates and seed. It gives
// synthetic backgrounds the pixel-level texture the inpainting and key-frame
// code need to behave realistically without requiring a shared RNG.
func (m *Image) AddNoise(amp int, seed uint64) {
	if amp <= 0 {
		return
	}
	for y := 0; y < m.H; y++ {
		off := m.offset(0, y)
		row := m.Pix[off : off+m.W*3]
		for x := 0; x < m.W; x++ {
			h := hash3(uint64(x), uint64(y), seed)
			p := row[x*3 : x*3+3]
			for c := 0; c < 3; c++ {
				n := int(h>>(c*8)&0xff)%(2*amp+1) - amp
				v := int(p[c]) + n
				p[c] = uint8(geom.Clamp(v, 0, 255))
			}
		}
	}
}

// hash3 is a small xorshift-style mixer over three words.
func hash3(x, y, s uint64) uint64 {
	h := x*0x9e3779b97f4a7c15 ^ y*0xc2b2ae3d27d4eb4f ^ s*0x165667b19e3779f9
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// VerticalGradient fills the image with a vertical gradient from top color
// a to bottom color b.
func (m *Image) VerticalGradient(a, b RGB) {
	for y := 0; y < m.H; y++ {
		t := 0.0
		if m.H > 1 {
			t = float64(y) / float64(m.H-1)
		}
		c := RGB{
			R: lerp8(a.R, b.R, t),
			G: lerp8(a.G, b.G, t),
			B: lerp8(a.B, b.B, t),
		}
		off := m.offset(0, y)
		row := m.Pix[off : off+m.W*3]
		for x := 0; x < m.W; x++ {
			p := row[x*3 : x*3+3]
			p[0], p[1], p[2] = c.R, c.G, c.B
		}
	}
}

func lerp8(a, b uint8, t float64) uint8 {
	return uint8(math.Round(float64(a) + (float64(b)-float64(a))*t))
}
