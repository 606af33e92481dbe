package img

import (
	"math"

	"verro/internal/geom"
)

// HSVHist holds normalized hue, saturation and value histograms of an image
// region. The bin counts are the h, s, v partition sizes of paper
// Algorithm 2 (line 2: "equally partition H, S, V value ranges").
type HSVHist struct {
	H, S, V []float64 // each sums to 1 (or is all-zero for an empty region)
}

// NewHSVHist computes the HSV histogram of the whole image with the given
// number of bins per channel.
func NewHSVHist(m *Image, hBins, sBins, vBins int) *HSVHist {
	return NewHSVHistRegion(m, m.Bounds(), hBins, sBins, vBins)
}

// NewHSVHistRegion computes the HSV histogram of region r of m.
func NewHSVHistRegion(m *Image, r geom.Rect, hBins, sBins, vBins int) *HSVHist {
	hh, sh, vh := make([]float64, hBins), make([]float64, sBins), make([]float64, vBins)
	r = r.Clip(m.Bounds())
	w := r.Dx()
	for y := r.Min.Y; y < r.Max.Y; y++ {
		off := m.offset(r.Min.X, y)
		row := m.Pix[off : off+w*3]
		for x := 0; x < w; x++ {
			p := row[x*3 : x*3+3]
			c := ToHSV(RGB{p[0], p[1], p[2]})
			hh[binIndex(c.H/360, hBins)]++
			sh[binIndex(c.S, sBins)]++
			vh[binIndex(c.V, vBins)]++
		}
	}
	if n := float64(r.Area()); n > 0 {
		for i := range hh {
			hh[i] /= n
		}
		for i := range sh {
			sh[i] /= n
		}
		for i := range vh {
			vh[i] /= n
		}
	}
	return &HSVHist{H: hh, S: sh, V: vh}
}

// binIndex maps a value in [0,1] to a bin in [0, bins).
func binIndex(v float64, bins int) int {
	i := int(v * float64(bins))
	if i >= bins {
		i = bins - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Intersection returns the histogram-intersection similarity between two
// normalized histograms: sum of per-bin minimums, in [0, 1].
func Intersection(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Min(a[i], b[i])
	}
	return sum
}

// Similarity returns the weighted HSV histogram-intersection similarity of
// paper Algorithm 2 line 10: alpha·Sim_H + beta·Sim_S + gamma·Sim_V.
func (h *HSVHist) Similarity(o *HSVHist, alpha, beta, gamma float64) float64 {
	return alpha*Intersection(h.H, o.H) +
		beta*Intersection(h.S, o.S) +
		gamma*Intersection(h.V, o.V)
}

// Entropy returns the weighted HSV histogram entropy used to pick the key
// frame of a segment (Algorithm 2 lines 18-20). Empty bins contribute zero.
func (h *HSVHist) Entropy(alpha, beta, gamma float64) float64 {
	return alpha*entropy(h.H) + beta*entropy(h.S) + gamma*entropy(h.V)
}

func entropy(p []float64) float64 {
	var e float64
	for _, v := range p {
		if v > 0 {
			e -= v * math.Log(v)
		}
	}
	return e
}

// Mix accumulates o into h with weight w (used to maintain the running
// histogram of a growing segment). Both histograms stay normalized if
// weights are convex.
func (h *HSVHist) Mix(o *HSVHist, w float64) {
	mixInto(h.H, o.H, w)
	mixInto(h.S, o.S, w)
	mixInto(h.V, o.V, w)
}

func mixInto(dst, src []float64, w float64) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] = (1-w)*dst[i] + w*src[i]
	}
}

// CosineSim returns the cosine similarity of two histograms, used by the
// tracker's appearance term. Returns 0 when either vector is zero.
func CosineSim(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot, na, nb float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Concat returns the concatenation H||S||V as a flat feature vector.
func (h *HSVHist) Concat() []float64 {
	out := make([]float64, 0, len(h.H)+len(h.S)+len(h.V))
	out = append(out, h.H...)
	out = append(out, h.S...)
	out = append(out, h.V...)
	return out
}

// MedianU8 returns the lower median of vals by counting into 256 buckets,
// which is faster than sorting for the many short per-pixel stacks of the
// background models.
func MedianU8(vals []uint8) uint8 {
	var counts [256]int
	for _, v := range vals {
		counts[v]++
	}
	mid := (len(vals) - 1) / 2
	cum := 0
	for v := 0; v < 256; v++ {
		cum += counts[v]
		if cum > mid {
			return uint8(v)
		}
	}
	return 255
}
