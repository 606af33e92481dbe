package detect

import (
	"fmt"
	"math"
	"math/rand"

	"verro/internal/geom"
	"verro/internal/hog"
	"verro/internal/img"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/scene"
	"verro/internal/svm"
)

// HOGSVM is a sliding-window detector over an image pyramid: HOG features
// scored by a linear SVM, followed by NMS — the architecture of the paper's
// pedestrian detector [51] and the HOG-based vehicle detector [22].
type HOGSVM struct {
	Model *svm.Model
	HOG   hog.Config
	// Window is the detection window at pyramid scale 1.
	WinW, WinH int
	// Stride is the sliding-window step in pixels.
	Stride int
	// Scales are the pyramid scale factors applied to the window size.
	Scales []float64
	// ScoreThreshold is the minimum SVM score to accept a window.
	ScoreThreshold float64
	// NMSIoU is the suppression overlap threshold.
	NMSIoU float64
	// RT scopes the sliding-window scan to a worker pool and reports the
	// window-evaluation counter to a stage span. The zero value (default
	// pool, no tracing) is fully functional.
	RT obs.Runtime
}

// SetSpan rebinds the detector's counters to a stage span (obs.SpanSetter);
// the tracker's runner calls it for each window so window evaluations land
// under that window's detect span rather than the run root.
func (d *HOGSVM) SetSpan(s *obs.Span) { d.RT.Span = s }

// NewPedestrianDetector returns a HOG+SVM detector trained on synthetic
// pedestrian sprites rendered by the scene package over the given
// background style — the offline training the paper delegates to OpenCV's
// pre-trained models.
func NewPedestrianDetector(style scene.Style, seed int64) (*HOGSVM, error) {
	cfg := hog.DefaultConfig()
	const winW, winH = 16, 32
	samples, labels, err := trainingSet(scene.Pedestrian, style, winW, winH, cfg, seed)
	if err != nil {
		return nil, err
	}
	model, err := svm.Train(samples, labels, svm.DefaultTrainConfig())
	if err != nil {
		return nil, fmt.Errorf("detect: train pedestrian model: %w", err)
	}
	return &HOGSVM{
		Model: model, HOG: cfg,
		WinW: winW, WinH: winH,
		Stride:         4,
		Scales:         []float64{0.75, 1.0, 1.35},
		ScoreThreshold: 0.25,
		NMSIoU:         0.3,
	}, nil
}

// trainingSet renders positive sprite windows and negative background
// windows for SVM training.
func trainingSet(class scene.ObjectClass, style scene.Style, winW, winH int, cfg hog.Config, seed int64) ([][]float64, []int, error) {
	rng := rand.New(rand.NewSource(seed))
	bg := scene.PaintBackground(style, 256, 192, uint64(seed))
	var samples [][]float64
	var labels []int

	const perClass = 160
	// Positives: sprites at varied colors/phases/scales composited on
	// random background crops.
	for i := 0; i < perClass; i++ {
		x := rng.Intn(bg.W - winW)
		y := rng.Intn(bg.H - winH)
		patch := bg.SubImage(geom.RectAt(x, y, winW, winH))
		color := scene.Palette(rng.Intn(500))
		pos := geom.V(float64(winW)/2, float64(winH)/2)
		scene.DrawObject(patch, class, color, pos, rng.Float64()*6)
		feat, err := hog.Compute(patch, cfg)
		if err != nil {
			return nil, nil, err
		}
		samples = append(samples, feat)
		labels = append(labels, 1)
	}
	// Negatives: plain background crops.
	for i := 0; i < perClass; i++ {
		x := rng.Intn(bg.W - winW)
		y := rng.Intn(bg.H - winH)
		patch := bg.SubImage(geom.RectAt(x, y, winW, winH))
		feat, err := hog.Compute(patch, cfg)
		if err != nil {
			return nil, nil, err
		}
		samples = append(samples, feat)
		labels = append(labels, -1)
	}
	return samples, labels, nil
}

// Detect runs the sliding window over the frame at every scale.
func (d *HOGSVM) Detect(frame *img.Image) ([]Detection, error) {
	if d.Model == nil {
		return nil, fmt.Errorf("detect: HOGSVM has no model")
	}
	stride := d.Stride
	if stride < 1 {
		stride = 4
	}
	scales := d.Scales
	if len(scales) == 0 {
		scales = []float64{1}
	}
	var out []Detection
	for _, s := range scales {
		ww := int(math.Round(float64(d.WinW) * s))
		wh := int(math.Round(float64(d.WinH) * s))
		if ww > frame.W || wh > frame.H || ww < d.HOG.CellSize*d.HOG.BlockSize {
			continue
		}
		// Window rows are independent: each worker scans whole rows and the
		// per-row hits are gathered in row order, so the detection sequence
		// feeding NMS is identical to the serial scan at any worker count.
		nRows := (frame.H-wh)/stride + 1
		type rowResult struct {
			dets  []Detection
			evals int64
			err   error
		}
		rows := par.MapPool(d.RT.Pool, nRows, 1, func(r int) rowResult {
			y := r * stride
			var res rowResult
			for x := 0; x+ww <= frame.W; x += stride {
				patch := frame.SubImage(geom.RectAt(x, y, ww, wh))
				if s != 1 {
					patch = patch.Resize(d.WinW, d.WinH)
				}
				feat, err := hog.Compute(patch, d.HOG)
				if err != nil {
					res.err = err
					return res
				}
				res.evals++
				score := d.Model.Score(feat)
				if score >= d.ScoreThreshold {
					res.dets = append(res.dets, Detection{Box: geom.RectAt(x, y, ww, wh), Score: score})
				}
			}
			return res
		})
		var evals int64
		for _, r := range rows {
			if r.err != nil {
				return nil, r.err
			}
			evals += r.evals
			out = append(out, r.dets...)
		}
		// One Add per scale level, not per window: Add takes the span lock.
		d.RT.Span.Add(obs.CWindowEvals, evals)
	}
	return NMS(out, d.NMSIoU), nil
}
