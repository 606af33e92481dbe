package detect

// BGSubtractor.Detect labels foreground by row runs and union-find. These
// tests keep the per-pixel BFS labeller it replaced as the reference and
// compare every component (order, box, area, diff sum) and every
// detection (box and score bits).

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"verro/internal/geom"
	"verro/internal/img"
)

// refComponent is one component as the BFS met it, with its float64
// running diff sum.
type refComponent struct {
	box      geom.Rect
	area     int
	scoreSum float64
}

// bfsComponents is the labeller before the run rewrite: a float64 diff
// plane, a bool mask, and a depth-first flood of 8-connected pixels from
// each unvisited foreground pixel in raster order.
func bfsComponents(frame, bg *img.Image, threshold float64) []refComponent {
	w, h := frame.W, frame.H
	diff := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p, q := frame.At(x, y), bg.At(x, y)
			d := math.Max(math.Abs(float64(p.R)-float64(q.R)),
				math.Max(math.Abs(float64(p.G)-float64(q.G)), math.Abs(float64(p.B)-float64(q.B))))
			diff[y*w+x] = d
		}
	}
	mask := make([]bool, w*h)
	for i, d := range diff {
		mask[i] = d >= threshold
	}
	visited := make([]bool, w*h)
	var out []refComponent
	var queue []int
	for start := range mask {
		if !mask[start] || visited[start] {
			continue
		}
		queue = append(queue[:0], start)
		visited[start] = true
		minX, minY, maxX, maxY := w, h, -1, -1
		area := 0
		var scoreSum float64
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			x, y := i%w, i/w
			area++
			scoreSum += diff[i]
			minX, minY = min(minX, x), min(minY, y)
			maxX, maxY = max(maxX, x), max(maxY, y)
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if nx < 0 || ny < 0 || nx >= w || ny >= h {
						continue
					}
					if j := ny*w + nx; mask[j] && !visited[j] {
						visited[j] = true
						queue = append(queue, j)
					}
				}
			}
		}
		out = append(out, refComponent{geom.R(minX, minY, maxX+1, maxY+1), area, scoreSum})
	}
	return out
}

// bfsDetect is BGSubtractor.Detect before the run rewrite.
func bfsDetect(b *BGSubtractor, frame *img.Image) []Detection {
	maxFrac := b.MaxBoxFrac
	if maxFrac <= 0 {
		maxFrac = 0.25
	}
	var out []Detection
	for _, c := range bfsComponents(frame, b.Background, b.Threshold) {
		if c.area < b.MinArea {
			continue
		}
		if float64(c.box.Area()) > maxFrac*float64(frame.W*frame.H) {
			continue
		}
		out = append(out, Detection{Box: c.box, Score: c.scoreSum / float64(c.area)})
	}
	return NMS(out, 0.5)
}

// checkLabelling compares the run labeller and Detect with the BFS
// reference on one frame against one subtractor.
func checkLabelling(t *testing.T, name string, b *BGSubtractor, frame *img.Image) {
	t.Helper()
	want := bfsComponents(frame, b.Background, b.Threshold)
	var fg [256]bool
	for d := range fg {
		fg[d] = float64(d) >= b.Threshold
	}
	got := components(img.ColorDiffPlane(frame, b.Background), frame.W, frame.H, &fg)
	if len(got) != len(want) {
		t.Fatalf("%s: %d components, want %d", name, len(got), len(want))
	}
	for i, c := range got {
		w := want[i]
		box := geom.R(c.minX, c.minY, c.maxX, c.maxY)
		if box != w.box || c.area != w.area || float64(c.sum) != w.scoreSum {
			t.Fatalf("%s: component %d = %v area %d sum %d, want %v area %d sum %v",
				name, i, box, c.area, c.sum, w.box, w.area, w.scoreSum)
		}
	}

	dets, err := b.Detect(frame)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantDets := bfsDetect(b, frame)
	if len(dets) != len(wantDets) {
		t.Fatalf("%s: %d detections, want %d", name, len(dets), len(wantDets))
	}
	for i, d := range dets {
		w := wantDets[i]
		if d.Box != w.Box || math.Float64bits(d.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: detection %d = %v %v, want %v %v", name, i, d.Box, d.Score, w.Box, w.Score)
		}
	}
}

// diffFrame returns a black background and a frame whose ColorDiffPlane
// against it is diff: each pixel's diff value sits in one channel and the
// other two stay at or below it.
func diffFrame(w, h int, diff []uint8, rng *rand.Rand) (frame, bg *img.Image) {
	frame, bg = img.New(w, h), img.New(w, h)
	for i, d := range diff {
		p := frame.Pix[i*3 : i*3+3]
		for c := range p {
			p[c] = uint8(rng.Intn(int(d) + 1))
		}
		p[rng.Intn(3)] = d
	}
	return frame, bg
}

// maskFrame draws a w×h frame from a picture of its mask ('#' foreground,
// '.' background) with random diff values on either side of 26.
func maskFrame(rows []string, rng *rand.Rand) (frame, bg *img.Image) {
	w, h := len(rows[0]), len(rows)
	diff := make([]uint8, w*h)
	for y, row := range rows {
		for x, c := range row {
			if c == '#' {
				diff[y*w+x] = uint8(26 + rng.Intn(230))
			} else {
				diff[y*w+x] = uint8(rng.Intn(26))
			}
		}
	}
	return diffFrame(w, h, diff, rng)
}

func TestRunLabellingMatchesBFSOnRandomFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []struct{ w, h int }{{1, 1}, {1, 40}, {40, 1}, {2, 2}, {7, 5}, {33, 17}, {64, 48}}
	for _, sz := range sizes {
		for _, density := range []float64{0, 0.05, 0.2, 0.4, 0.6, 0.8, 1} {
			for trial := 0; trial < 4; trial++ {
				diff := make([]uint8, sz.w*sz.h)
				for i := range diff {
					if rng.Float64() < density {
						diff[i] = uint8(26 + rng.Intn(230))
					} else {
						diff[i] = uint8(rng.Intn(26))
					}
				}
				frame, bg := diffFrame(sz.w, sz.h, diff, rng)
				for _, cfg := range []BGSubtractor{
					{Threshold: 26, MinArea: 10, MaxBoxFrac: 0.25},
					{Threshold: 26, MinArea: 1, MaxBoxFrac: 1},
					{Threshold: 26, MinArea: 3},
				} {
					cfg.Background = bg
					name := fmt.Sprintf("%dx%d density %.2f trial %d MinArea %d MaxBoxFrac %v",
						sz.w, sz.h, density, trial, cfg.MinArea, cfg.MaxBoxFrac)
					checkLabelling(t, name, &cfg, frame)
				}
			}
		}
	}
}

// TestRunLabellingMatchesBFSOnNoisyBackgrounds runs full-colour noise in
// both images, so every channel and every threshold crossing occurs.
func TestRunLabellingMatchesBFSOnNoisyBackgrounds(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		bg := img.NewFilled(48, 36, img.RGB{R: 90, G: 120, B: 60})
		bg.AddNoise(20, seed)
		frame := img.NewFilled(48, 36, img.RGB{R: 90, G: 120, B: 60})
		frame.AddNoise(20+int(seed)*4, seed+100)
		frame.Fill(geom.RectAt(int(seed)*3, 5, 9, 14), img.RGB{R: 200, G: 40, B: 30})
		for _, thr := range []float64{0, 1, 20, 26, 33.5, 255, 256} {
			b := &BGSubtractor{Background: bg, Threshold: thr, MinArea: 2, MaxBoxFrac: 1}
			checkLabelling(t, fmt.Sprintf("seed %d threshold %v", seed, thr), b, frame)
		}
	}
}

func TestRunLabellingMatchesBFSOnShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct {
		name string
		rows []string
	}{
		{"diagonal chain", []string{
			"#.......",
			".#......",
			"..#.....",
			"...#....",
			"....#...",
		}},
		{"anti-diagonal chain", []string{
			"....#...",
			"...#....",
			"..#.....",
			".#......",
			"#.......",
		}},
		{"zigzag joined only at corners", []string{
			"#.#.#.#.",
			".#.#.#.#",
			"........",
			"#.....#.",
			".#...#..",
			"..#.#...",
			"...#....",
		}},
		{"two chains meeting at the bottom", []string{
			"#......#",
			".#....#.",
			"..#..#..",
			"...##...",
		}},
		{"a later run joins two earlier sets", []string{
			"#..#..#.",
			"#..#..#.",
			"########",
		}},
		{"ring on all four borders", []string{
			"##########",
			"#........#",
			"#..###...#",
			"#........#",
			"##########",
		}},
		{"cross to all four borders", []string{
			"...#...",
			"...#...",
			"#######",
			"...#...",
			"...#...",
		}},
		{"corners only", []string{
			"#.....#",
			".......",
			"#.....#",
		}},
		{"full frame", []string{
			"#####",
			"#####",
			"#####",
		}},
		{"empty mask", []string{
			".....",
			".....",
		}},
		{"spiral", []string{
			"#########",
			"........#",
			"#######.#",
			"#.....#.#",
			"#.###.#.#",
			"#.#...#.#",
			"#.#####.#",
			"#.......#",
			"#########",
		}},
	}
	for _, shape := range shapes {
		frame, bg := maskFrame(shape.rows, rng)
		for _, cfg := range []BGSubtractor{
			{Threshold: 26, MinArea: 1, MaxBoxFrac: 1},
			{Threshold: 26, MinArea: 4, MaxBoxFrac: 0.5},
			{Threshold: 26, MinArea: 10},
		} {
			cfg.Background = bg
			checkLabelling(t, fmt.Sprintf("%s MinArea %d MaxBoxFrac %v", shape.name, cfg.MinArea, cfg.MaxBoxFrac), &cfg, frame)
		}
	}
}

// TestRunLabellingFilterBoundaries puts components exactly on and just
// past the MinArea and MaxBoxFrac limits.
func TestRunLabellingFilterBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// A 20×10 frame (200 pixels) holding a 4×5 block (area and box 20,
	// 10% of the frame) and a 3×3 block (area 9).
	rows := make([]string, 10)
	for y := range rows {
		row := []byte("....................")
		for x := 2; x < 6 && y < 5; x++ {
			row[x] = '#'
		}
		for x := 12; x < 15 && y >= 6 && y < 9; x++ {
			row[x] = '#'
		}
		rows[y] = string(row)
	}
	frame, bg := maskFrame(rows, rng)
	for _, c := range []struct {
		minArea int
		maxFrac float64
		kept    int
	}{
		{9, 0.1, 2},   // area 9 is MinArea, box 20 is 0.1 of 200
		{10, 0.1, 1},  // the 3×3 block is one pixel short
		{9, 0.099, 1}, // the 4×5 box is just over the limit
		{20, 0.1, 1},  // the 4×5 block's area is MinArea
		{21, 1, 0},    // nothing is large enough
		{0, 0.045, 1}, // the 3×3 box is 0.045 of the frame
		{0, 0.044, 0}, // and now just over
	} {
		b := &BGSubtractor{Background: bg, Threshold: 26, MinArea: c.minArea, MaxBoxFrac: c.maxFrac}
		name := fmt.Sprintf("MinArea %d MaxBoxFrac %v", c.minArea, c.maxFrac)
		checkLabelling(t, name, b, frame)
		if got, _ := b.Detect(frame); len(got) != c.kept {
			t.Fatalf("%s: kept %d, want %d", name, len(got), c.kept)
		}
	}
}

// TestRunLabellingNonIntegerThreshold sets thresholds between and on diff
// values: the foreground test must compare as float64, not round.
func TestRunLabellingNonIntegerThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w, h := 30, 20
	diff := make([]uint8, w*h)
	for i := range diff {
		diff[i] = uint8(24 + rng.Intn(5)) // 24..28
	}
	frame, bg := diffFrame(w, h, diff, rng)
	for _, thr := range []float64{25.5, 26, 26.000000001, 25.999999999, 27.25, math.Nextafter(26, 0), math.Inf(1), math.Inf(-1), math.NaN()} {
		b := &BGSubtractor{Background: bg, Threshold: thr, MinArea: 1, MaxBoxFrac: 1}
		checkLabelling(t, fmt.Sprintf("threshold %v", thr), b, frame)
	}
}
