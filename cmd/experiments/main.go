// Command experiments regenerates every table and figure of the paper's
// evaluation section over the three synthetic benchmark videos. Text
// results go to stdout; CSV series and PNG frames are written under -out.
//
// Usage:
//
//	experiments [-run all|table1|table2|table3|fig5|fig678|fig91011|fig12|fig13|baseline|ablation|attack]
//	            [-scale 1.0] [-trials 5] [-seed 1] [-out results] [-video MOT01,MOT03,MOT06]
//	            [-tracked] [-html results/report.html] [-trace out.json] [-pprof addr]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"verro/internal/exp"
	"verro/internal/obs"
	"verro/internal/report"
	"verro/internal/scene"
)

func main() {
	var (
		run     = flag.String("run", "all", "experiment to run (all, table1, table2, table3, fig5, fig678, fig91011, fig12, fig13, baseline, ablation, attack)")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor in (0,1]")
		trials  = flag.Int("trials", 5, "random-response trials to average")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "results", "output directory for CSVs and PNGs ('' disables)")
		videos  = flag.String("video", "MOT01,MOT03,MOT06", "comma-separated benchmark videos")
		tracked = flag.Bool("tracked", false, "use detected+tracked objects instead of ground truth")
		html    = flag.String("html", "", "also write a self-contained HTML report to this path")
		traceP  = flag.String("trace", "", "write a JSON run report (span tree + counters; schema in DESIGN.md)")
		pprofA  = flag.String("pprof", "", "serve net/http/pprof and expvar (cmdline, memstats) on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *pprofA != "" {
		if err := obs.ServeDebug(*pprofA); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	opt := exp.Options{Scale: *scale, Trials: *trials, Seed: *seed, UseTrackedObjects: *tracked}
	if *traceP != "" {
		opt.Trace = obs.NewTrace("experiments")
	}
	if err := runAll(*run, *videos, *out, *html, opt); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if opt.Trace != nil {
		if err := opt.Trace.WriteFile(*traceP); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace to %s\n%s", *traceP, opt.Trace.Report().Summary())
	}
}

func runAll(which, videos, out, htmlPath string, opt exp.Options) error {
	want := map[string]bool{}
	for _, w := range strings.Split(which, ",") {
		want[strings.TrimSpace(w)] = true
	}
	sel := func(name string) bool { return want["all"] || want[name] }

	var names []string
	for _, v := range strings.Split(videos, ",") {
		names = append(names, strings.TrimSpace(v))
	}

	// Load datasets one at a time to bound memory; Table 1 needs them all,
	// so collect its rows incrementally.
	var t1 []exp.Table1Row
	var t2 []exp.Table2Row
	var t3 []exp.Table3Row
	rep := &report.Data{
		Title:  "VERRO experiment report",
		Fig5:   map[string][]exp.Fig5Point{},
		Frames: map[string]string{},
	}
	fsweep := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	fpair := []float64{0.1, 0.9}

	for _, name := range names {
		preset, err := scene.PresetByName(name)
		if err != nil {
			return err
		}
		fmt.Printf("=== %s (scale %.2f) ===\n", name, opt.Scale)
		d, err := exp.LoadDataset(preset, opt)
		if err != nil {
			return err
		}

		if sel("table1") {
			t1 = append(t1, exp.Table1([]*exp.Dataset{d})...)
		}
		if sel("table2") {
			t2 = append(t2, exp.Table2(d))
		}
		if sel("fig5") {
			points, err := exp.Fig5(d, fsweep, opt.Trials, opt.Seed)
			if err != nil {
				return err
			}
			exp.PrintFig5(os.Stdout, d.Preset.Name, points)
			rep.Fig5[d.Preset.Name] = points
			if out != "" {
				path := filepath.Join(out, fmt.Sprintf("fig5-%s.csv", d.Preset.Name))
				tab, err := exp.Fig5Table(points)
				if err != nil {
					return err
				}
				if err := tab.SaveCSV(path); err != nil {
					return err
				}
				fmt.Println("  wrote", path)
			}
		}
		if sel("fig678") {
			fig, err := exp.Fig678(d, fpair, opt.Seed)
			if err != nil {
				return err
			}
			exp.PrintTrajectorySummary(os.Stdout, fig)
			if out != "" {
				// Figures 6-8 plot original against sanitized trajectories; the
				// unsanitized series are half of the published comparison by the
				// paper's design, not an accidental leak.
				//lint:allow privleak figure data includes the original trajectories on purpose
				if err := fig.SaveCSVs(out); err != nil {
					return err
				}
				fmt.Println("  wrote trajectory CSVs to", out)
			}
		}
		if sel("fig12") {
			t, err := exp.Fig12(d, fpair, opt.Seed)
			if err != nil {
				return err
			}
			exp.PrintCountSummary(os.Stdout, fmt.Sprintf("Figure 12 (%s): counts in optimized key frames", d.Preset.Name), t)
			if out != "" {
				path := filepath.Join(out, fmt.Sprintf("fig12-%s.csv", d.Preset.Name))
				if err := t.SaveCSV(path); err != nil {
					return err
				}
				fmt.Println("  wrote", path)
			}
		}
		if sel("fig13") {
			t, err := exp.Fig13(d, fpair, opt.Seed)
			if err != nil {
				return err
			}
			exp.PrintCountSummary(os.Stdout, fmt.Sprintf("Figure 13 (%s): per-frame counts in synthetic video", d.Preset.Name), t)
			if out != "" {
				path := filepath.Join(out, fmt.Sprintf("fig13-%s.csv", d.Preset.Name))
				if err := t.SaveCSV(path); err != nil {
					return err
				}
				fmt.Println("  wrote", path)
			}
		}
		if sel("baseline") {
			r, err := exp.Baseline(d, 0.1, opt.Trials, opt.Seed)
			if err != nil {
				return err
			}
			exp.PrintBaseline(os.Stdout, r)
			rep.Baselines = append(rep.Baselines, r)
		}
		if sel("ablation") {
			r, err := exp.Ablation(d, 0.1, opt.Trials, opt.Seed)
			if err != nil {
				return err
			}
			exp.PrintAblation(os.Stdout, r)
			rows, err := exp.InterpAblation(d, 0.1, opt.Trials, opt.Seed)
			if err != nil {
				return err
			}
			exp.PrintInterpAblation(os.Stdout, rows)
			kfRows, err := exp.KeyframeAblation(d)
			if err != nil {
				return err
			}
			exp.PrintKeyframeAblation(os.Stdout, kfRows)
		}
		if sel("attack") {
			r, err := exp.Attack(d, 0.1, opt.Seed)
			if err != nil {
				return err
			}
			exp.PrintAttack(os.Stdout, r)
			rep.Attacks = append(rep.Attacks, r)
		}
		if sel("fig91011") {
			frame := d.Gen.Video.Len() / 2
			files, err := exp.Fig91011(d, frame, fpair, opt.Seed, out)
			if err != nil {
				return err
			}
			fmt.Printf("Figures 9-11 (%s): frame %d\n", d.Preset.Name, frame)
			tags := make([]string, 0, len(files))
			for tag := range files {
				tags = append(tags, tag)
			}
			sort.Strings(tags)
			for _, tag := range tags {
				path := files[tag]
				fmt.Printf("  %-18s %s\n", tag, path)
				rep.Frames[fmt.Sprintf("%s %s (frame %d)", d.Preset.Name, tag, frame)] = path
			}
		}
		if sel("table3") {
			row, _, err := exp.Table3(d, 0.1, opt.Seed)
			if err != nil {
				return err
			}
			t3 = append(t3, row)
		}
	}

	if sel("table1") {
		exp.PrintTable1(os.Stdout, t1)
	}
	if sel("table2") {
		exp.PrintTable2(os.Stdout, t2)
	}
	if sel("table3") {
		exp.PrintTable3(os.Stdout, t3)
	}
	if htmlPath != "" {
		rep.Table1, rep.Table2, rep.Table3 = t1, t2, t3
		if err := report.Save(htmlPath, rep); err != nil {
			return err
		}
		fmt.Println("wrote", htmlPath)
	}
	return nil
}
