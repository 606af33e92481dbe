package vid

// The shifted delta of a moving camera. Its frames are mostly their
// predecessor moved sideways by a few columns: the sanitizer draws every
// output frame over a crop of one panorama, so consecutive backgrounds
// are exact column shifts of each other. The writer finds the shift by
// exact pixel equality on a few rows, with integer compares only, and
// codes the frame as a delta against its predecessor shifted by it.

const (
	// maxShift bounds the column shifts the writer tries and the reader
	// accepts.
	maxShift = 8
	// shiftRows is the number of rows bestShift samples: rows
	// (2s+1)·H/16 for s < 8, spread evenly down the frame.
	shiftRows = 8
)

// bestShift returns the column shift d under which prev best predicts
// cur, two w-wide frames of h rows: the d in [-maxShift, maxShift], |d| <
// w, whose shiftScore is highest. The candidates run 0, -1, +1, -2, +2, …
// and one replaces the best so far only when it scores strictly higher,
// so d = 0, the plain delta, wins every tie.
func bestShift(cur, prev []uint8, w, h int) int {
	if h == 0 {
		return 0
	}
	best, top := 0, shiftScore(cur, prev, w, h, 0)
	for m := 1; m <= maxShift && m < w; m++ {
		if s := shiftScore(cur, prev, w, h, -m); s > top {
			best, top = -m, s
		}
		if s := shiftScore(cur, prev, w, h, m); s > top {
			best, top = m, s
		}
	}
	return best
}

// shiftScore counts the pixels on bestShift's sampled rows whose three
// channels equal prev's pixel d columns to the right; a pixel whose x+d
// falls outside the frame does not count. It requires |d| < w and h > 0.
func shiftScore(cur, prev []uint8, w, h, d int) int {
	stride, lo, hi, off := 3*w, 3*max(0, -d), 3*min(w, w-d), 3*d
	n := 0
	for s := range shiftRows {
		row := (2*s + 1) * h / (2 * shiftRows) * stride
		c, p := cur[row+lo:row+hi], prev[row+lo+off:row+hi+off]
		for len(c) >= 3 && len(p) >= 3 {
			if c[0] == p[0] && c[1] == p[1] && c[2] == p[2] {
				n++
			}
			c, p = c[3:], p[3:]
		}
	}
	return n
}

// validShift reports whether a shifted delta of a w-wide frame may carry
// shift d: the writer never writes d = 0 as a shift, nor one beyond
// maxShift or the frame.
func validShift(d, w int) bool {
	return d != 0 && d >= -maxShift && d <= maxShift && d < w && -d < w
}

// shiftDelta writes into dst the delta of cur against prev shifted d
// columns: pixel x of each row minus prev's pixel x+d on the same row, or
// cur's own bytes where x+d falls outside the frame. d = 0 is the plain
// delta. The three slices hold the same whole rows of w pixels, and |d| <
// w.
func shiftDelta(dst, cur, prev []uint8, w, d int) {
	stride, lo, hi, off := 3*w, 3*max(0, -d), 3*min(w, w-d), 3*d
	for row := 0; row < len(cur); row += stride {
		copy(dst[row:row+lo], cur[row:row+lo])
		copy(dst[row+hi:row+stride], cur[row+hi:row+stride])
		o, c, p := dst[row+lo:row+hi], cur[row+lo:row+hi], prev[row+lo+off:row+hi+off]
		c, p = c[:len(o)], p[:len(o)]
		for j := range o {
			o[j] = c[j] - p[j]
		}
	}
}

// unshiftDelta inverts shiftDelta in place: it adds prev shifted d
// columns back onto the delta in pix, whose out-of-frame columns already
// hold raw pixels.
func unshiftDelta(pix, prev []uint8, w, d int) {
	stride, lo, hi, off := 3*w, 3*max(0, -d), 3*min(w, w-d), 3*d
	for row := 0; row < len(pix); row += stride {
		o, p := pix[row+lo:row+hi], prev[row+lo+off:row+hi+off]
		p = p[:len(o)]
		for j := range o {
			o[j] += p[j]
		}
	}
}
