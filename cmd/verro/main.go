// Command verro sanitizes a video: it reads a .vvf container (and
// optionally a tracks CSV), runs the VERRO pipeline, and writes the
// synthetic video. Without a tracks file it runs the built-in
// detection+tracking preprocessing first.
//
// Usage:
//
//	verro -in video.vvf [-tracks gt.csv] -out synthetic.vvf
//	      [-f 0.1] [-eps 0] [-seed 1] [-png 0] [-laplace 0] [-no-opt]
//	      [-workers N] [-window N] [-trace out.json] [-pprof addr]
//
// Either -f (flip probability) or -eps (total ε budget) sets the privacy
// level; -eps wins when both are given. Phase I converts a budget to f
// over the key frames it picks, per class under -multitype, and the run
// prints the K and f it used.
//
// -trace writes a machine-readable run report (span tree per pipeline
// stage, stage counters, worker-pool gauges; schema in DESIGN.md) and
// prints a human-readable summary. -pprof serves net/http/pprof and expvar
// (including live worker-pool stats) on the given address, e.g.
// -pprof localhost:6060.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"verro"
	"verro/internal/obs"
)

// options collects the run parameters; flags bind to the fields directly.
type options struct {
	in, tracksPath, out string
	f, eps              float64
	seed                int64
	pngN, gifN          int
	laplace             float64
	noOpt, multi        bool
	workers             int
	window              int
	tracePath           string
	pprofAddr           string
}

func main() {
	var opt options
	flag.StringVar(&opt.in, "in", "", "input .vvf video (required)")
	flag.StringVar(&opt.tracksPath, "tracks", "", "object tracks CSV (optional; detected when empty)")
	flag.StringVar(&opt.out, "out", "synthetic.vvf", "output .vvf video")
	flag.Float64Var(&opt.f, "f", 0.1, "flip probability in (0,1]")
	flag.Float64Var(&opt.eps, "eps", 0, "total epsilon budget (overrides -f when > 0)")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed")
	flag.IntVar(&opt.pngN, "png", 0, "dump every Nth synthetic frame as PNG next to -out (0 = none)")
	flag.Float64Var(&opt.laplace, "laplace", 0, "epsilon' for Laplace noise on optimization statistics (0 = off)")
	flag.BoolVar(&opt.noOpt, "no-opt", false, "disable key-frame optimization (use all key frames)")
	flag.BoolVar(&opt.multi, "multitype", false, "sanitize each object class independently (Section 5)")
	flag.IntVar(&opt.gifN, "gif", 0, "also export an animated GIF sampling every Nth frame (0 = none)")
	flag.IntVar(&opt.workers, "workers", 0, "worker-pool size for the hot CV loops (0 = GOMAXPROCS; output is identical at any setting)")
	flag.IntVar(&opt.window, "window", 0, "stream the pipeline from disk in windows of N frames, bounding memory to O(N) (0 = one whole-clip window; output is identical at any setting)")
	flag.StringVar(&opt.tracePath, "trace", "", "write a JSON run report (span tree + counters; schema in DESIGN.md)")
	flag.StringVar(&opt.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.Parse()
	if opt.in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if opt.pprofAddr != "" {
		// The user asked for diagnostics explicitly; an unbindable address is
		// an error worth stopping for, not one to discover minutes later.
		if err := obs.ServeDebug(opt.pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, "verro:", err)
			os.Exit(1)
		}
	}
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "verro:", err)
		os.Exit(1)
	}
}

// run is the file-to-file pipeline. The input decodes from disk in windows
// of -window N frames (0 is one whole-clip window), detection, tracking and
// the sanitizer stream over them, and the output encodes to disk window by
// window, so peak memory is O(N) regardless of clip length. -multitype is
// the same run with each object class sanitized on its own. The written
// file is byte-identical at any window size.
func run(opt options) error {
	src, err := verro.OpenVideoSource(opt.in)
	if err != nil {
		return err
	}
	defer src.Close()
	meta := src.Meta()
	fmt.Printf("input: %s %dx%d %d frames (window %d)\n", meta.Name, meta.W, meta.H, meta.Frames, opt.window)

	// One trace covers the whole run: detection+tracking (when it runs) and
	// the sanitizer stages all land in the same span tree.
	var trace *verro.Trace
	if opt.tracePath != "" {
		trace = verro.NewTrace("verro")
	}

	var tracks *verro.TrackSet
	if opt.tracksPath != "" {
		tracks, err = verro.LoadTracks(opt.tracksPath)
		if err != nil {
			return err
		}
		fmt.Printf("tracks: %d objects from %s\n", tracks.Len(), opt.tracksPath)
	} else {
		fmt.Println("no tracks given; running detection + tracking...")
		pcfg := verro.DefaultPipelineConfig()
		pcfg.Trace = trace
		pcfg.Workers = opt.workers
		pcfg.WindowFrames = opt.window
		tracks, err = verro.DetectAndTrackStream(src, pcfg)
		if err != nil {
			return err
		}
		if err := src.Reset(); err != nil {
			return err
		}
		fmt.Printf("tracked %d objects\n", tracks.Len())
	}

	cfg := verro.DefaultConfig()
	cfg.Seed = opt.seed
	cfg.Phase1.F = opt.f
	cfg.Phase1.Eps = opt.eps
	cfg.Phase1.Optimize = !opt.noOpt
	cfg.Phase1.LaplaceEps = opt.laplace
	cfg.Trace = trace
	cfg.Workers = opt.workers
	cfg.WindowFrames = opt.window
	cfg.PerClass = opt.multi

	// The output is written under a temporary name next to -out and renamed
	// into place once complete. A failed run leaves no half-written .vvf
	// where a caller could mistake it for a sanitized artifact, and -out may
	// name the input itself: the source keeps reading the original.
	tmp := opt.out + ".tmp"
	defer os.Remove(tmp) // no-op once renamed
	sink, err := verro.NewVideoSink(tmp, verro.StreamOutputMeta(meta))
	if err != nil {
		return err
	}
	// Close is idempotent: a no-op after the success path (SanitizeStream
	// closes the sink itself); on an error return it releases the
	// descriptor before the temporary file is removed.
	defer sink.Close()
	res, err := verro.SanitizeStream(src, tracks, cfg, sink)
	if err != nil {
		return err
	}
	if opt.multi {
		classes := make([]string, 0, len(res.PerClass))
		for name := range res.PerClass {
			classes = append(classes, name)
		}
		sort.Strings(classes)
		for _, name := range classes {
			p1 := res.PerClass[name]
			fmt.Printf("class %-11s eps=%.3f over %d picked key frames, f=%.4f\n", name, p1.Epsilon, len(p1.Picked), p1.F)
		}
	} else {
		fmt.Printf("sanitized: eps=%.3f over %d picked key frames, f=%.4f\n",
			res.Epsilon, len(res.Phase1.Picked), res.Phase1.F)
	}
	fmt.Printf("%d/%d objects retained over %d windows\n",
		res.SyntheticTracks.Len(), tracks.Len(), len(res.Windows))
	written := sink.Written()
	if err := os.Rename(tmp, opt.out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%.2f MB)\n", opt.out, float64(written)/(1<<20))

	if opt.pngN > 0 || opt.gifN > 0 {
		// Read the output back for the optional exports. The decoded frames
		// are the sanitizer's own published output, not raw footage — the
		// taint analyzer only sees a video decode.
		synthetic, err := verro.ReadVideo(opt.out)
		if err != nil {
			return err
		}
		if opt.pngN > 0 {
			dir := opt.out + "-frames"
			count := 0
			for k := 0; k < synthetic.Len(); k += opt.pngN {
				path := filepath.Join(dir, fmt.Sprintf("frame%05d.png", k))
				//lint:allow privleak frames decoded from our own sanitized output file
				if err := synthetic.Frame(k).WritePNG(path); err != nil {
					return err
				}
				count++
			}
			fmt.Printf("wrote %d PNG frames to %s\n", count, dir)
		}
		if opt.gifN > 0 {
			gifPath := opt.out + ".gif"
			//lint:allow privleak GIF re-encodes our own sanitized output file
			if err := synthetic.WriteGIF(gifPath, opt.gifN); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", gifPath)
		}
	}
	if trace != nil {
		if err := trace.WriteFile(opt.tracePath); err != nil {
			return err
		}
		fmt.Printf("wrote trace to %s\n%s", opt.tracePath, trace.Report().Summary())
	}
	return nil
}
