package img

import "math"

// Resize returns m resampled to w×h using bilinear interpolation.
func (m *Image) Resize(w, h int) *Image {
	out := New(w, h)
	if m.W == 0 || m.H == 0 || w == 0 || h == 0 {
		return out
	}
	sx := float64(m.W) / float64(w)
	sy := float64(m.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		y0 := int(math.Floor(fy))
		ty := fy - float64(y0)
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			x0 := int(math.Floor(fx))
			tx := fx - float64(x0)
			c00 := m.At(x0, y0)
			c10 := m.At(x0+1, y0)
			c01 := m.At(x0, y0+1)
			c11 := m.At(x0+1, y0+1)
			out.Set(x, y, RGB{
				R: bilerp(c00.R, c10.R, c01.R, c11.R, tx, ty),
				G: bilerp(c00.G, c10.G, c01.G, c11.G, tx, ty),
				B: bilerp(c00.B, c10.B, c01.B, c11.B, tx, ty),
			})
		}
	}
	return out
}

func bilerp(c00, c10, c01, c11 uint8, tx, ty float64) uint8 {
	top := float64(c00) + (float64(c10)-float64(c00))*tx
	bot := float64(c01) + (float64(c11)-float64(c01))*tx
	return uint8(math.Round(top + (bot-top)*ty))
}

// GrayPlane returns the luma of every pixel as a float64 plane, row-major.
func (m *Image) GrayPlane() []float64 {
	out := make([]float64, m.W*m.H)
	for y := 0; y < m.H; y++ {
		row := out[y*m.W : y*m.W+m.W]
		off := m.offset(0, y)
		prow := m.Pix[off : off+m.W*3]
		for x := range row {
			p := prow[x*3 : x*3+3]
			row[x] = float64(RGB{p[0], p[1], p[2]}.Gray())
		}
	}
	return out
}

// Gradients computes central-difference horizontal and vertical luma
// gradients. The returned planes have the same dimensions as m.
func (m *Image) Gradients() (gx, gy []float64) {
	gray := m.GrayPlane()
	gx = make([]float64, m.W*m.H)
	gy = make([]float64, m.W*m.H)
	w, h := m.W, m.H
	for y := 0; y < h; y++ {
		yu, yd := y-1, y+1
		if yu < 0 {
			yu = 0
		}
		if yd > h-1 {
			yd = h - 1
		}
		cur := gray[y*w : y*w+w]
		up := gray[yu*w : yu*w+w]
		down := gray[yd*w : yd*w+w]
		gxr := gx[y*w : y*w+w]
		gyr := gy[y*w : y*w+w]
		n := len(cur)
		if len(up) < n {
			n = len(up)
		}
		if len(down) < n {
			n = len(down)
		}
		if len(gyr) < n {
			n = len(gyr)
		}
		for x := 0; x < n; x++ {
			gyr[x] = down[x] - up[x]
		}
		// Horizontal gradient: the clamped neighbours only matter at the
		// row ends, so the interior runs over pre-shifted slices and the
		// two edge pixels are peeled off through fixed-size windows.
		if n == 1 {
			first := gxr[0:1]
			first[0] = 0
			continue
		}
		if n > 1 {
			head := cur[0:2]
			tail := cur[n-2 : n-2+2]
			first := gxr[0:1]
			last := gxr[n-1 : n-1+1]
			first[0] = head[1] - head[0]
			last[0] = tail[1] - tail[0]
			dst := gxr[1 : n-1]
			right := cur[2:n]
			left := cur[0 : n-2]
			k := len(dst)
			if len(right) < k {
				k = len(right)
			}
			if len(left) < k {
				k = len(left)
			}
			for x := 0; x < k; x++ {
				dst[x] = right[x] - left[x]
			}
		}
	}
	return gx, gy
}

// ColorDiffPlane returns, per pixel, the maximum per-channel absolute
// difference between m and n — a chromatic change measure that catches
// objects whose luma happens to match the background. n must have m's
// dimensions. The loop takes no data-dependent branch: each channel's
// difference is widened to int, absInt folds its sign without a jump, and
// the builtin max over ints compiles to conditional moves (over uint8 it
// compiles to jumps).
func ColorDiffPlane(m, n *Image) []uint8 {
	out := make([]uint8, m.W*m.H)
	a, b := m.Pix[:len(out)*3], n.Pix[:len(out)*3]
	for i := range out {
		p, q := a[i*3:i*3+3], b[i*3:i*3+3]
		out[i] = uint8(max(
			absInt(int(p[0])-int(q[0])),
			absInt(int(p[1])-int(q[1])),
			absInt(int(p[2])-int(q[2]))))
	}
	return out
}

// absInt returns |x| as (x ^ s) - s, where s is x's sign spread over
// every bit.
func absInt(x int) int {
	s := x >> 63
	return (x ^ s) - s
}
