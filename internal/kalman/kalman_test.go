package kalman

import (
	"math"
	"testing"

	"verro/internal/geom"
)

func TestNewReproducesBox(t *testing.T) {
	b := geom.RectAt(100, 50, 20, 40)
	f := New(b)
	got := f.Box()
	if got.Center().Sub(b.Center()).X > 1 || got.Center().Sub(b.Center()).Y > 1 {
		t.Fatalf("initial center %v, want %v", got.Center(), b.Center())
	}
	if absI(got.Dx()-b.Dx()) > 1 || absI(got.Dy()-b.Dy()) > 1 {
		t.Fatalf("initial size %dx%d, want %dx%d", got.Dx(), got.Dy(), b.Dx(), b.Dy())
	}
}

func absI(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestTracksConstantVelocity(t *testing.T) {
	// Object moving right at 3 px/frame. After a few updates the filter's
	// prediction should land near the true next position.
	f := New(geom.RectAt(0, 100, 10, 20))
	for k := 1; k <= 20; k++ {
		f.Predict()
		f.Update(geom.RectAt(3*k, 100, 10, 20))
	}
	pred := f.Predict() // frame 21
	trueBox := geom.RectAt(63, 100, 10, 20)
	c1, c2 := pred.CenterVec(), trueBox.CenterVec()
	if c1.Dist(c2) > 3 {
		t.Fatalf("prediction center %v too far from truth %v", c1, c2)
	}
	v := f.Velocity()
	if math.Abs(v.X-3) > 0.5 || math.Abs(v.Y) > 0.5 {
		t.Fatalf("velocity = %v, want ~(3,0)", v)
	}
}

func TestStationaryObjectStaysPut(t *testing.T) {
	b := geom.RectAt(50, 50, 12, 24)
	f := New(b)
	for k := 0; k < 10; k++ {
		f.Predict()
		f.Update(b)
	}
	got := f.Predict()
	if got.CenterVec().Dist(b.CenterVec()) > 2 {
		t.Fatalf("stationary object drifted: %v vs %v", got.Center(), b.Center())
	}
}

func TestUpdatePullsTowardsMeasurement(t *testing.T) {
	f := New(geom.RectAt(0, 0, 10, 10))
	before := f.Center()
	f.Predict()
	f.Update(geom.RectAt(40, 40, 10, 10))
	after := f.Center()
	target := geom.V(45, 45)
	if after.Dist(target) >= before.Dist(target) {
		t.Fatal("update did not move the state towards the measurement")
	}
}

func TestPredictWithoutUpdateCoasts(t *testing.T) {
	f := New(geom.RectAt(10, 10, 8, 16))
	// Teach it a velocity.
	for k := 1; k <= 10; k++ {
		f.Predict()
		f.Update(geom.RectAt(10+5*k, 10, 8, 16))
	}
	// Coast 5 frames without measurements: center should keep moving right.
	prevX := f.Center().X
	for k := 0; k < 5; k++ {
		f.Predict()
		x := f.Center().X
		if x <= prevX {
			t.Fatalf("coasting should continue rightward: %v -> %v", prevX, x)
		}
		prevX = x
	}
}

func TestDegenerateBoxesDoNotPanic(t *testing.T) {
	f := New(geom.RectAt(0, 0, 0, 0)) // zero-size box
	f.Predict()
	f.Update(geom.RectAt(5, 5, 0, 0))
	b := f.Box()
	if b.Dx() < 0 || b.Dy() < 0 {
		t.Fatalf("negative box: %v", b)
	}
}

func TestAreaNeverGoesNegative(t *testing.T) {
	// Shrinking object: area velocity becomes negative; prediction must
	// clamp rather than produce NaN boxes.
	f := New(geom.RectAt(0, 0, 40, 40))
	for k := 0; k < 12; k++ {
		f.Predict()
		s := 40 - 3*k
		if s < 2 {
			s = 2
		}
		f.Update(geom.RectAt(0, 0, s, s))
	}
	for k := 0; k < 30; k++ {
		b := f.Predict()
		if b.Dx() < 0 || b.Dy() < 0 {
			t.Fatalf("invalid predicted box %v", b)
		}
		if math.IsNaN(f.Center().X) {
			t.Fatal("NaN state")
		}
	}
}

func TestInvert4(t *testing.T) {
	a := [4][4]float64{
		{4, 0, 0, 0},
		{0, 2, 1, 0},
		{0, 1, 2, 0},
		{0, 0, 0, 1},
	}
	inv, ok := invert4(a)
	if !ok {
		t.Fatal("invertible matrix reported singular")
	}
	// Check A·A⁻¹ = I.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var sum float64
			for l := 0; l < 4; l++ {
				sum += a[i][l] * inv[l][j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(sum-want) > 1e-9 {
				t.Fatalf("A·inv at (%d,%d) = %v", i, j, sum)
			}
		}
	}
	var singular [4][4]float64
	if _, ok := invert4(singular); ok {
		t.Fatal("zero matrix should be singular")
	}
}

// Center returns the current state center.
func (f *Filter) Center() geom.Vec { return geom.V(f.x[0], f.x[1]) }

// Velocity returns the estimated center velocity in pixels per frame.
func (f *Filter) Velocity() geom.Vec { return geom.V(f.x[4], f.x[5]) }
