package core

import (
	"math"
	"math/rand"
	"testing"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/interp"
	"verro/internal/ldp"
	"verro/internal/motio"
	"verro/internal/vid"
)

func TestPhase1ConfigValidate(t *testing.T) {
	base := DefaultPhase1Config()
	cases := []struct {
		name   string
		mutate func(*Phase1Config)
		ok     bool
	}{
		{"default", func(*Phase1Config) {}, true},
		{"f upper bound", func(c *Phase1Config) { c.F = 1 }, true},
		{"f zero", func(c *Phase1Config) { c.F = 0 }, false},
		{"f negative", func(c *Phase1Config) { c.F = -0.1 }, false},
		{"f above one", func(c *Phase1Config) { c.F = 1.01 }, false},
		{"f NaN", func(c *Phase1Config) { c.F = math.NaN() }, false},
		{"f +Inf", func(c *Phase1Config) { c.F = math.Inf(1) }, false},
		{"laplace NaN", func(c *Phase1Config) { c.LaplaceEps = math.NaN() }, false},
		{"laplace +Inf", func(c *Phase1Config) { c.LaplaceEps = math.Inf(1) }, false},
		{"laplace negative", func(c *Phase1Config) { c.LaplaceEps = -1 }, false},
		{"laplace positive", func(c *Phase1Config) { c.LaplaceEps = 0.5 }, true},
		{"eps NaN", func(c *Phase1Config) { c.Eps = math.NaN() }, false},
		{"eps +Inf", func(c *Phase1Config) { c.Eps = math.Inf(1) }, false},
		{"eps -Inf", func(c *Phase1Config) { c.Eps = math.Inf(-1) }, false},
		{"eps negative", func(c *Phase1Config) { c.Eps = -1 }, false},
		{"eps positive", func(c *Phase1Config) { c.Eps = 20 }, true},
		{"density NaN", func(c *Phase1Config) { c.DensityFraction = math.NaN() }, false},
		{"density -Inf", func(c *Phase1Config) { c.DensityFraction = math.Inf(-1) }, false},
		{"density negative", func(c *Phase1Config) { c.DensityFraction = -0.5 }, false},
		{"min picked negative", func(c *Phase1Config) { c.MinPicked = -1 }, false},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
}

// TestRunPhase1RejectsNaN pins the regression: a NaN flip probability used
// to pass the `F <= 0 || F > 1` range check (NaN fails every ordered
// comparison) and flow into ε = K·ln((2−f)/f).
func TestRunPhase1RejectsNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reduced := []ldp.BitVector{{true, false, true}}
	cfg := DefaultPhase1Config()
	cfg.F = math.NaN()
	if _, err := RunPhase1(reduced, []int{0, 5, 9}, cfg, rng); err == nil {
		t.Fatal("RunPhase1 accepted F = NaN")
	}
}

func TestSanitizeRejectsInvalidConfig(t *testing.T) {
	v := vid.New("x", 8, 8, 10)
	cfg := DefaultConfig()
	cfg.Phase1.F = math.NaN()
	// The empty-video check fires first; give the validator something to see.
	for i := 0; i < 3; i++ {
		if err := v.Append(img.NewFilled(8, 8, img.RGB{R: 100, G: 100, B: 100})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Sanitize(v, motio.NewTrackSet(), cfg); err == nil {
		t.Fatal("Sanitize accepted F = NaN")
	}
}

func TestSanitizeJointRejectsBadBudget(t *testing.T) {
	videos := []*vid.Video{vid.New("x", 8, 8, 10)}
	tracks := []*motio.TrackSet{motio.NewTrackSet()}
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := SanitizeJoint(videos, tracks, eps, DefaultConfig()); err == nil {
			t.Errorf("SanitizeJoint accepted totalEps = %v", eps)
		}
	}
}

// oscillatingRun builds control points whose y alternates between the top
// and bottom of the frame — the classic Runge configuration for a
// high-degree interpolating polynomial.
func oscillatingRun(n, spacing int) []interp.Sample {
	var run []interp.Sample
	for i := 0; i < n; i++ {
		y := 10.0
		if i%2 == 1 {
			y = 90.0
		}
		run = append(run, interp.Sample{Frame: i * spacing, Pos: geom.V(50, y)})
	}
	return run
}

func TestSafeExtendGuardsLagrangeBlowup(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)
	run := oscillatingRun(14, 3)
	numFrames := run[len(run)-1].Frame + 5

	// Sanity: the raw Lagrange trajectory on this run really does blow up
	// past the guard threshold — otherwise this test pins nothing.
	_, rawPos, err := interp.ExtendToBorder(interp.MethodLagrange, run, numFrames, bounds, 2)
	if err != nil {
		t.Fatal(err)
	}
	center := geom.V(50, 50)
	limit := blowupLimit * math.Hypot(100, 100)
	var worst float64
	for _, p := range rawPos {
		if d := p.Sub(center).Norm(); d > worst {
			worst = d
		}
	}
	if worst <= limit {
		t.Fatalf("test fixture too tame: worst excursion %.0f <= limit %.0f", worst, limit)
	}

	// The guard must fall back to the piecewise-linear trajectory.
	frames, pos, err := safeExtend(interp.MethodLagrange, run, numFrames, bounds, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames, wantPos, err := interp.ExtendToBorder(interp.MethodLinear, run, numFrames, bounds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(wantFrames) || len(pos) != len(wantPos) {
		t.Fatalf("fallback shape mismatch: %d/%d frames, %d/%d positions",
			len(frames), len(wantFrames), len(pos), len(wantPos))
	}
	for i := range pos {
		if frames[i] != wantFrames[i] || pos[i] != wantPos[i] {
			t.Fatalf("fallback diverges from linear at %d: frame %d/%d pos %v/%v",
				i, frames[i], wantFrames[i], pos[i], wantPos[i])
		}
		if !finiteVec(pos[i]) {
			t.Fatalf("non-finite fallback position %v at %d", pos[i], i)
		}
	}
}

// TestSafeExtendKeepsModerateOscillation pins the paper-faithful behavior:
// Lagrange oscillation that merely swings out of frame is load-bearing
// (Phase II suppresses those positions, pruning ghost appearances at high
// f) and must NOT trigger the fallback.
func TestSafeExtendKeepsModerateOscillation(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)
	// Few control points: degree-4 polynomial, excursions bounded well
	// below the guard threshold even though they leave the frame.
	run := []interp.Sample{
		{Frame: 0, Pos: geom.V(50, 10)},
		{Frame: 4, Pos: geom.V(50, 90)},
		{Frame: 8, Pos: geom.V(50, 10)},
		{Frame: 12, Pos: geom.V(50, 90)},
		{Frame: 16, Pos: geom.V(50, 10)},
	}
	frames, pos, err := safeExtend(interp.MethodLagrange, run, 20, bounds, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames, wantPos, err := interp.ExtendToBorder(interp.MethodLagrange, run, 20, bounds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(wantFrames) {
		t.Fatalf("guard rewrote a benign run: %d vs %d frames", len(frames), len(wantFrames))
	}
	for i := range pos {
		if pos[i] != wantPos[i] {
			t.Fatalf("guard rewrote a benign run at %d: %v vs %v", i, pos[i], wantPos[i])
		}
	}
}
