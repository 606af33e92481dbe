package verro_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section 6) under `go test -bench`. Each benchmark drives the
// same internal/exp code as cmd/experiments, so timings here measure the
// real experiment pipelines. Benchmarks default to quarter-scale datasets
// to stay laptop-friendly; set VERRO_BENCH_SCALE=1 to run the full
// paper-sized videos (cmd/experiments is the tool of record for those).

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"verro"
	"verro/internal/exp"
	"verro/internal/scene"
)

func benchScale() float64 {
	if s := os.Getenv("VERRO_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && v <= 1 {
			return v
		}
	}
	return 0.25
}

// Dataset cache: loading MOT videos is expensive; benchmarks share one
// loaded copy per (preset, scale).
var (
	dsMu    sync.Mutex
	dsCache = map[string]*exp.Dataset{}
)

func dataset(b *testing.B, name string) *exp.Dataset {
	b.Helper()
	scale := benchScale()
	key := fmt.Sprintf("%s@%v", name, scale)
	dsMu.Lock()
	defer dsMu.Unlock()
	if d, ok := dsCache[key]; ok {
		return d
	}
	preset, err := scene.PresetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	d, err := exp.LoadDataset(preset, exp.Options{Scale: scale, Trials: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dsCache[key] = d
	return d
}

func allDatasets(b *testing.B) []*exp.Dataset {
	return []*exp.Dataset{dataset(b, "MOT01"), dataset(b, "MOT03"), dataset(b, "MOT06")}
}

// BenchmarkTable1Characteristics regenerates Table 1 (video
// characteristics): dataset generation plus preprocessing.
func BenchmarkTable1Characteristics(b *testing.B) {
	verro.RecordBench(b)
	for i := 0; i < b.N; i++ {
		rows := exp.Table1(allDatasets(b))
		if len(rows) != 3 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable2KeyFrames regenerates Table 2 (distinct objects after key
// frame extraction).
func BenchmarkTable2KeyFrames(b *testing.B) {
	verro.RecordBench(b)
	ds := allDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			row := exp.Table2(d)
			if row.Remaining == 0 || row.Remaining > row.Objects {
				b.Fatalf("bad row %+v", row)
			}
			b.ReportMetric(float64(row.Remaining)/float64(row.Objects), row.Video+"_retention")
		}
	}
}

// BenchmarkTable3Overheads regenerates Table 3: the full sanitization
// (Phase I + Phase II + rendering + encoding) per video at f = 0.1.
func BenchmarkTable3Overheads(b *testing.B) {
	for _, name := range []string{"MOT01", "MOT03", "MOT06"} {
		b.Run(name, func(b *testing.B) {
			verro.RecordBench(b)
			d := dataset(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row, _, err := exp.Table3(d, 0.1, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(row.Phase1.Seconds(), "phase1_s")
				b.ReportMetric(row.Phase2.Seconds(), "phase2_s")
				b.ReportMetric(row.BandwidthMB, "bandwidth_MB")
			}
		})
	}
}

// BenchmarkFig5DistinctObjects regenerates the Figure 5(a,c,e) retention
// curves (Phase I utility across the f sweep).
func BenchmarkFig5DistinctObjects(b *testing.B) {
	for _, name := range []string{"MOT01", "MOT03", "MOT06"} {
		b.Run(name, func(b *testing.B) {
			verro.RecordBench(b)
			d := dataset(b, name)
			fs := []float64{0.1, 0.5, 0.9}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var rrTotal float64
				for _, f := range fs {
					r, err := d.Retention(f, 1, int64(i)+1)
					if err != nil {
						b.Fatal(err)
					}
					rrTotal += r.RR
				}
				b.ReportMetric(rrTotal/float64(len(fs)), "mean_rr_retained")
			}
		})
	}
}

// BenchmarkFig5Deviation regenerates the Figure 5(b,d,f) trajectory
// deviation curves (Phase I + Phase II, track-level only).
func BenchmarkFig5Deviation(b *testing.B) {
	for _, name := range []string{"MOT01", "MOT03", "MOT06"} {
		b.Run(name, func(b *testing.B) {
			verro.RecordBench(b)
			d := dataset(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				points, err := exp.Fig5(d, []float64{0.1, 0.9}, 1, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(points[0].DevAfter, "dev_after_f0.1")
				b.ReportMetric(points[len(points)-1].DevAfter, "dev_after_f0.9")
			}
		})
	}
}

// BenchmarkFig678Trajectories regenerates the Figures 6-8 trajectory
// extractions (two sampled objects, original vs synthetic at f=0.1/0.9).
func BenchmarkFig678Trajectories(b *testing.B) {
	for _, name := range []string{"MOT01", "MOT03", "MOT06"} {
		b.Run(name, func(b *testing.B) {
			verro.RecordBench(b)
			d := dataset(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fig, err := exp.Fig678(d, []float64{0.1, 0.9}, int64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				if len(fig.Series) == 0 {
					b.Fatal("no series")
				}
			}
		})
	}
}

// BenchmarkFig91011Frames regenerates the Figures 9-11 representative
// frames (input, reconstructed background, synthetic at f=0.1) without
// writing PNGs.
func BenchmarkFig91011Frames(b *testing.B) {
	for _, name := range []string{"MOT01", "MOT06"} {
		b.Run(name, func(b *testing.B) {
			verro.RecordBench(b)
			d := dataset(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exp.Fig91011(d, d.Gen.Video.Len()/2, []float64{0.1}, int64(i)+1, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12KeyFrameCounts regenerates the Figure 12 aggregate counts
// in optimized key frames.
func BenchmarkFig12KeyFrameCounts(b *testing.B) {
	verro.RecordBench(b)
	d := dataset(b, "MOT03")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12(d, []float64{0.1, 0.9}, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13FrameCounts regenerates the Figure 13 per-frame counts in
// the synthetic videos.
func BenchmarkFig13FrameCounts(b *testing.B) {
	verro.RecordBench(b)
	d := dataset(b, "MOT03")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig13(d, []float64{0.1, 0.9}, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineNaiveRR runs the Algorithm 1 baseline comparison (the
// Section 3.1 "poor utility" argument).
func BenchmarkBaselineNaiveRR(b *testing.B) {
	verro.RecordBench(b)
	d := dataset(b, "MOT03")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.Baseline(d, 0.1, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NaiveOnesFrac, "naive_ones_frac")
		b.ReportMetric(r.NaiveCountMAE, "naive_count_MAE")
		b.ReportMetric(r.VerroCountMAE, "verro_count_MAE")
	}
}

// BenchmarkAblationDimensionReduction measures the retention each design
// stage buys (naive RR vs key frames vs key frames + OPT).
func BenchmarkAblationDimensionReduction(b *testing.B) {
	verro.RecordBench(b)
	d := dataset(b, "MOT01")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.Ablation(d, 0.1, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.KFOptRet, "opt_retained")
	}
}

// BenchmarkSanitizeEndToEnd measures the public-API sanitization path a
// library user hits, per video.
func BenchmarkSanitizeEndToEnd(b *testing.B) {
	for _, name := range []string{"MOT01", "MOT03", "MOT06"} {
		b.Run(name, func(b *testing.B) {
			verro.RecordBench(b)
			d := dataset(b, name)
			cfg := d.SanitizerConfig(0.1, 1, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i) + 1
				if _, err := verro.Sanitize(d.Gen.Video, d.Tracks, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectAndTrack measures the preprocessing pipeline (median
// background + subtraction + SORT tracking) per frame.
func BenchmarkDetectAndTrack(b *testing.B) {
	verro.RecordBench(b)
	d := dataset(b, "MOT01")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracks, err := verro.DetectAndTrack(d.Gen.Video, verro.DefaultPipelineConfig())
		if err != nil {
			b.Fatal(err)
		}
		if tracks.Len() == 0 {
			b.Fatal("no tracks")
		}
	}
}

// BenchmarkAttackReidentification runs the background-knowledge
// re-identification comparison (unsanitized vs blur vs VERRO).
func BenchmarkAttackReidentification(b *testing.B) {
	verro.RecordBench(b)
	d := dataset(b, "MOT01")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.Attack(d, 0.1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Blur, "blur_top1")
		b.ReportMetric(r.Verro, "verro_top1")
	}
}
