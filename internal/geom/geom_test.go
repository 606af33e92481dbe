package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectNormalization(t *testing.T) {
	r := R(10, 20, 2, 4)
	if r.Min != Pt(2, 4) || r.Max != Pt(10, 20) {
		t.Fatalf("R did not normalize corners: %v", r)
	}
}

func TestRectAreaAndEmpty(t *testing.T) {
	cases := []struct {
		r     Rect
		area  int
		empty bool
	}{
		{R(0, 0, 4, 3), 12, false},
		{R(5, 5, 5, 9), 0, true},
		{Rect{}, 0, true},
		{RectAt(-2, -2, 2, 2), 4, false},
	}
	for _, c := range cases {
		if got := c.r.Area(); got != c.area {
			t.Errorf("%v.Area() = %d, want %d", c.r, got, c.area)
		}
		if got := c.r.Empty(); got != c.empty {
			t.Errorf("%v.Empty() = %t, want %t", c.r, got, c.empty)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	got := a.Intersect(b)
	if got != R(5, 5, 10, 10) {
		t.Fatalf("Intersect = %v", got)
	}
	if !a.Intersect(R(20, 20, 30, 30)).Empty() {
		t.Fatal("disjoint rects should intersect to empty")
	}
}

func TestIoU(t *testing.T) {
	a := R(0, 0, 10, 10)
	if got := IoU(a, a); got != 1 {
		t.Fatalf("IoU(a,a) = %v, want 1", got)
	}
	if got := IoU(a, R(10, 10, 20, 20)); got != 0 {
		t.Fatalf("disjoint IoU = %v, want 0", got)
	}
	// Half overlap: inter 50, union 150.
	b := R(5, 0, 15, 10)
	want := 50.0 / 150.0
	if got := IoU(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("IoU = %v, want %v", got, want)
	}
}

func TestIoUProperties(t *testing.T) {
	gen := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := RectAt(int(ax), int(ay), int(aw%32)+1, int(ah%32)+1)
		b := RectAt(int(bx), int(by), int(bw%32)+1, int(bh%32)+1)
		iou := IoU(a, b)
		if iou < 0 || iou > 1 {
			return false
		}
		// Symmetry.
		return iou == IoU(b, a)
	}
	if err := quick.Check(gen, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectCommutesAndContained(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := RectAt(int(ax), int(ay), int(aw)+1, int(ah)+1)
		b := RectAt(int(bx), int(by), int(bw)+1, int(bh)+1)
		i1, i2 := a.Intersect(b), b.Intersect(a)
		if i1 != i2 {
			return false
		}
		return a.Contains(i1) && b.Contains(i1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCenteredRect(t *testing.T) {
	r := CenteredRect(Pt(10, 10), 4, 6)
	if r.Center() != Pt(10, 10) {
		t.Fatalf("center = %v", r.Center())
	}
	if r.Dx() != 4 || r.Dy() != 6 {
		t.Fatalf("dims = %dx%d", r.Dx(), r.Dy())
	}
}

func TestVecOps(t *testing.T) {
	v := V(3, 4)
	if v.Norm() != 5 {
		t.Fatalf("Norm = %v", v.Norm())
	}
	if got := v.Add(V(1, 1)); got != V(4, 5) {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Scale(2); got != V(6, 8) {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Dot(V(2, 1)); got != 10 {
		t.Fatalf("Dot = %v", got)
	}
	if got := V(0, 0).Lerp(V(10, 20), 0.5); got != V(5, 10) {
		t.Fatalf("Lerp = %v", got)
	}
	if got := V(1.6, -1.4).Round(); got != Pt(2, -1) {
		t.Fatalf("Round = %v", got)
	}
}

func TestPointIn(t *testing.T) {
	r := R(0, 0, 10, 10)
	if !Pt(0, 0).In(r) {
		t.Fatal("min corner should be inside (half-open)")
	}
	if Pt(10, 5).In(r) || Pt(5, 10).In(r) {
		t.Fatal("max edges should be outside (half-open)")
	}
}

func TestPolyline(t *testing.T) {
	p := Polyline{V(0, 0), V(3, 4), V(3, 4)}
	if p.Length() != 5 {
		t.Fatalf("Length = %v", p.Length())
	}
	if (Polyline{}).Length() != 0 {
		t.Fatal("empty polyline length should be 0")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp misbehaves")
	}
	if ClampF(1.5, 0, 1) != 1 || ClampF(-0.5, 0, 1) != 0 || ClampF(0.25, 0, 1) != 0.25 {
		t.Fatal("ClampF misbehaves")
	}
}
