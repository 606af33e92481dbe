// Package kalman implements the constant-velocity Kalman filter used by the
// SORT-style tracker. The state is the bounding-box parameterization of the
// SORT paper: (cx, cy, s, r, vcx, vcy, vs) where cx, cy is the box center,
// s its area, r its aspect ratio (assumed constant), and v* the velocities.
package kalman

import (
	"math"

	"verro/internal/geom"
)

const (
	dim  = 7 // state dimension
	mdim = 4 // measurement dimension (cx, cy, s, r)
)

// Filter is a Kalman filter specialized to the SORT box state.
type Filter struct {
	x [dim]float64      // state mean
	p [dim][dim]float64 // state covariance
}

// measurement noise and process noise scales, in the spirit of the SORT
// reference implementation.
const (
	posStd    = 1.0
	sizeStd   = 10.0
	ratioStd  = 0.01
	velStd    = 10.0
	processQ  = 0.01
	processQs = 1e-4
)

// boxToMeasurement converts a rectangle to (cx, cy, s, r).
func boxToMeasurement(b geom.Rect) [mdim]float64 {
	w := float64(b.Dx())
	h := float64(b.Dy())
	if h <= 0 {
		h = 1
	}
	if w <= 0 {
		w = 1
	}
	c := b.CenterVec()
	return [mdim]float64{c.X, c.Y, w * h, w / h}
}

// measurementToBox converts (cx, cy, s, r) back to a rectangle.
func measurementToBox(z [mdim]float64) geom.Rect {
	s := math.Max(z[2], 1)
	r := math.Max(z[3], 1e-3)
	w := math.Sqrt(s * r)
	h := s / w
	x0 := int(math.Round(z[0] - w/2))
	y0 := int(math.Round(z[1] - h/2))
	return geom.RectAt(x0, y0, int(math.Round(w)), int(math.Round(h)))
}

// New initializes a filter from the first observed box with high velocity
// uncertainty.
func New(b geom.Rect) *Filter {
	f := &Filter{}
	z := boxToMeasurement(b)
	for i := 0; i < mdim; i++ {
		f.x[i] = z[i]
	}
	// Initial covariance: confident in position, uncertain in velocity.
	diag := [dim]float64{
		posStd * posStd, posStd * posStd, sizeStd * sizeStd, ratioStd * ratioStd,
		velStd * velStd, velStd * velStd, velStd * velStd,
	}
	for i := 0; i < dim; i++ {
		f.p[i][i] = diag[i]
	}
	return f
}

// Predict advances the state by one frame and returns the predicted box.
func (f *Filter) Predict() geom.Rect {
	// Guard against negative predicted area.
	if f.x[2]+f.x[6] <= 0 {
		f.x[6] = 0
	}
	// x' = F x with F the constant-velocity transition.
	f.x[0] += f.x[4]
	f.x[1] += f.x[5]
	f.x[2] += f.x[6]

	// P' = F P Fᵀ + Q, exploiting F's sparsity: rows 0..2 gain the coupled
	// velocity terms.
	var p2 [dim][dim]float64
	couple := [dim]int{4, 5, 6, -1, -1, -1, -1}
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			v := f.p[i][j]
			if ci := couple[i]; ci >= 0 {
				v += f.p[ci][j]
			}
			if cj := couple[j]; cj >= 0 {
				v += f.p[i][cj]
				if ci := couple[i]; ci >= 0 {
					v += f.p[ci][cj]
				}
			}
			p2[i][j] = v
		}
	}
	f.p = p2
	for i := 0; i < dim; i++ {
		q := processQ
		if i == 6 {
			q = processQs
		}
		f.p[i][i] += q
	}
	return f.Box()
}

// Update fuses a new measurement (an observed box) into the state.
func (f *Filter) Update(b geom.Rect) {
	z := boxToMeasurement(b)
	// Innovation y = z − Hx (H selects the first four components).
	var y [mdim]float64
	for i := 0; i < mdim; i++ {
		y[i] = z[i] - f.x[i]
	}
	// S = HPHᵀ + R is the top-left 4×4 block of P plus R.
	r := [mdim]float64{posStd * posStd, posStd * posStd, sizeStd * sizeStd, ratioStd * ratioStd}
	var s [mdim][mdim]float64
	for i := 0; i < mdim; i++ {
		for j := 0; j < mdim; j++ {
			s[i][j] = f.p[i][j]
		}
		s[i][i] += r[i]
	}
	sinv, ok := invert4(s)
	if !ok {
		return // singular innovation covariance: skip the update
	}
	// K = P Hᵀ S⁻¹ is dim×mdim using the first four columns of P.
	var k [dim][mdim]float64
	for i := 0; i < dim; i++ {
		for j := 0; j < mdim; j++ {
			var sum float64
			for l := 0; l < mdim; l++ {
				sum += f.p[i][l] * sinv[l][j]
			}
			k[i][j] = sum
		}
	}
	// x = x + K y
	for i := 0; i < dim; i++ {
		var sum float64
		for j := 0; j < mdim; j++ {
			sum += k[i][j] * y[j]
		}
		f.x[i] += sum
	}
	// P = (I − K H) P; KH affects only the first four columns of the factor.
	var p2 [dim][dim]float64
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			v := f.p[i][j]
			for l := 0; l < mdim; l++ {
				v -= k[i][l] * f.p[l][j]
			}
			p2[i][j] = v
		}
	}
	f.p = p2
}

// Box returns the current state as a rectangle.
func (f *Filter) Box() geom.Rect {
	return measurementToBox([mdim]float64{f.x[0], f.x[1], f.x[2], f.x[3]})
}

// invert4 inverts a 4×4 matrix by Gauss-Jordan elimination with partial
// pivoting; ok is false when the matrix is singular.
func invert4(a [mdim][mdim]float64) (inv [mdim][mdim]float64, ok bool) {
	var aug [mdim][2 * mdim]float64
	for i := 0; i < mdim; i++ {
		for j := 0; j < mdim; j++ {
			aug[i][j] = a[i][j]
		}
		aug[i][mdim+i] = 1
	}
	for col := 0; col < mdim; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < mdim; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot][col]) < 1e-12 {
			return inv, false
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		p := aug[col][col]
		for j := 0; j < 2*mdim; j++ {
			aug[col][j] /= p
		}
		for r := 0; r < mdim; r++ {
			if r == col {
				continue
			}
			factor := aug[r][col]
			if factor == 0 {
				continue
			}
			for j := 0; j < 2*mdim; j++ {
				aug[r][j] -= factor * aug[col][j]
			}
		}
	}
	for i := 0; i < mdim; i++ {
		for j := 0; j < mdim; j++ {
			inv[i][j] = aug[i][mdim+j]
		}
	}
	return inv, true
}
