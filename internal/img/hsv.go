package img

import "math"

// HSV is a hue-saturation-value triple with H in [0, 360), S and V in [0, 1].
// Key-frame extraction (paper Algorithm 2) clusters frames by HSV
// histograms, so the conversion here must be stable and fast.
type HSV struct {
	H, S, V float64
}

// ToHSV converts an RGB color to HSV.
func ToHSV(c RGB) HSV {
	r := float64(c.R) / 255
	g := float64(c.G) / 255
	b := float64(c.B) / 255
	// The channels are non-negative and never NaN, where the builtins
	// equal math.Max and math.Min.
	maxc := max(r, g, b)
	minc := min(r, g, b)
	delta := maxc - minc

	var h float64
	switch {
	case delta <= 0: // == 0 in exact arithmetic; <= lets interval analysis prove delta > 0 below
		h = 0
	case maxc == r:
		// g and b lie in [minc, maxc], so the quotient lies in [-1, 1],
		// where math.Mod(x, 6) returns x bit for bit.
		h = 60 * ((g - b) / delta)
	case maxc == g:
		h = 60 * ((b-r)/delta + 2)
	default:
		h = 60 * ((r-g)/delta + 4)
	}
	if h < 0 {
		h += 360
	}

	var s float64
	if maxc > 0 {
		s = delta / maxc
	}
	return HSV{H: h, S: s, V: maxc}
}

// FromHSV converts an HSV color back to RGB.
func FromHSV(c HSV) RGB {
	h := math.Mod(c.H, 360)
	if h < 0 {
		h += 360
	}
	s := clamp01(c.S)
	v := clamp01(c.V)

	chroma := v * s
	hp := h / 60
	x := chroma * (1 - math.Abs(math.Mod(hp, 2)-1))
	var r, g, b float64
	switch {
	case hp < 1:
		r, g, b = chroma, x, 0
	case hp < 2:
		r, g, b = x, chroma, 0
	case hp < 3:
		r, g, b = 0, chroma, x
	case hp < 4:
		r, g, b = 0, x, chroma
	case hp < 5:
		r, g, b = x, 0, chroma
	default:
		r, g, b = chroma, 0, x
	}
	m := v - chroma
	return RGB{
		R: uint8(math.Round((r + m) * 255)),
		G: uint8(math.Round((g + m) * 255)),
		B: uint8(math.Round((b + m) * 255)),
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
