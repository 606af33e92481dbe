// Command perfbench is the repository benchmark. It runs one named
// workload for a given seed — the library's bounded-memory streaming path
// (stream-moving) or a verrod it spawns (service-jobs) — checks every
// artifact, and prints the end-to-end
// metrics, or with -trace 1 the per-layer metrics, as one JSON object on
// the last line of its standard output. The lines before it give the host
// record, sample counts and any failure.
//
// run.sh builds this binary and verrod from the checkout and runs it from
// the repository root:
//
//	bash _perfbench/run.sh --workload stream-moving --seed 1 --seconds 20 --trace 0
//
// README.md beside this file defines the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workload is one named traffic shape.
type workload struct {
	spec inputSpec
	// service runs the ops as verrod jobs; otherwise they run in process.
	service bool
	// opSeeds is how many sanitizer seeds the ops cycle over.
	opSeeds int
}

var workloads = map[string]workload{
	// The only detect/track, pan and moving-camera inpaint path; three
	// windowed decode passes.
	"stream-moving": {spec: inputSpec{Preset: "MOT06", Scale: 0.5}, opSeeds: 2},
	// Per-job fixed costs: HTTP, probe, fsync'd checkpoints, SSE, encode.
	"service-jobs": {spec: inputSpec{Preset: "MOT01", Scale: 0.25}, service: true, opSeeds: 4},
}

// setupAllowance is what the watchdog grants a run beyond its timed phase:
// input generation, set-up and the checks after timing.
const setupAllowance = 120 * time.Second

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	verrod   string
	dir      string
	probe    bool
}

func main() { os.Exit(run()) }

func run() int {
	var c runConfig
	var secs, trace int
	flag.StringVar(&c.workload, "workload", "", "stream-moving or service-jobs")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: selects the generated input and the sanitizer seeds")
	flag.IntVar(&secs, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&c.verrod, "verrod", "", "verrod binary (service-jobs)")
	flag.StringVar(&c.dir, "dir", ".bench_build", "directory for generated inputs, scratch files and traces")
	flag.BoolVar(&c.probe, "probe", false, "time one cold set-up in this process and exit (the benchmark runs this itself)")
	flag.Parse()
	c.seconds = time.Duration(secs) * time.Second
	c.trace = trace == 1
	w, ok := workloads[c.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) || (w.service && c.verrod == "") {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload stream-moving|service-jobs, -seconds >= 1, -trace 0|1 (and -verrod for service-jobs)")
		return 2
	}
	if err := execute(c, w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func execute(c runConfig, w workload) error {
	gen, err := executableDigest()
	if err != nil {
		return err
	}
	in, err := ensureInput(filepath.Join(c.dir, "inputs"), w.spec, c.seed, gen)
	if err != nil {
		return err
	}
	work := filepath.Join(c.dir, "work", fmt.Sprintf("%s-%d", c.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// The sanitizer seeds are a small fixed set, the same in every run: the
	// workload seed varies the input, not how much work the ops do.
	seeds := make([]int64, w.opSeeds)
	for i := range seeds {
		seeds[i] = int64(i) + 1
	}
	if c.probe {
		return probe(in, work, seeds[0])
	}
	watchdog := c.seconds + setupAllowance
	timer := time.AfterFunc(watchdog, func() {
		// Child processes die with this one (Pdeathsig).
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	defer timer.Stop()

	res := &result{correct: true, values: map[string]float64{}}
	res.host = newHostRecord(work)
	res.host.Workload, res.host.Seed, res.host.OpSeeds = c.workload, c.seed, seeds
	if w.service {
		res.host.Verrod = strings.Join(verrodFlags, " ")
		err = runService(c, in, work, seeds, res)
	} else {
		err = runInproc(c, in, work, seeds, res)
	}
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout, c.trace); err != nil {
		return err
	}
	if !res.correct {
		return fmt.Errorf("%d of %d ops failed or produced wrong output", res.failed, res.attempted)
	}
	return nil
}

// probe times one cold set-up — the first op of a fresh process, inputs
// already on disk — and prints it with the artifact digest.
func probe(in input, work string, seed int64) error {
	t0 := time.Now()
	iw := &inprocWorkload{in: in, outDir: work}
	op, err := iw.runOp(nil, 0, seed)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	sum, err := fileSHA256(op.outPath)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{"setup_s": d.Seconds(), "sha256": sum})
}

// runProbe runs a set-up probe in a fresh process.
func runProbe(c runConfig) (float64, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	cmd := exec.Command(exe, "-probe", "-workload", c.workload, "-seed", fmt.Sprint(c.seed), "-dir", c.dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return 0, "", fmt.Errorf("set-up probe: %w", err)
	}
	var p struct {
		SetupS float64 `json:"setup_s"`
		SHA256 string  `json:"sha256"`
	}
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		return 0, "", fmt.Errorf("set-up probe output %q: %w", out.String(), err)
	}
	return p.SetupS, p.SHA256, nil
}

func traceFile(c runConfig) string {
	dir := filepath.Join(c.dir, "traces")
	_ = os.MkdirAll(dir, 0o755)
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
}

// result is one run's outcome.
type result struct {
	host              hostRecord
	attempted, failed int
	correct           bool
	values            map[string]float64
	notes             []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness failure.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.note("FAIL: "+format, args...)
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer list the metrics a run prints, in BENCHMARK.json
// order. A layer a workload does not exercise reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"first_output_s_p50", "s"},
	{"frames_per_s", "frames/s"},
	{"cpu_ms_per_frame", "ms/frame"},
	{"peak_rss_mib", "MiB"},
	{"output_mib", "MiB"},
}

var perLayer = []metricDef{
	{"vid.decode_ms_per_frame", "ms/frame"},
	{"vid.encode_ms_per_frame", "ms/frame"},
	{"vid.decode_passes", "passes"},
	{"detect.ms_per_frame", "ms/frame"},
	{"detect.tracks", "count"},
	{"keyframe.ms", "ms"},
	{"keyframe.key_frames", "count"},
	{"inpaint.ms", "ms"},
	{"inpaint.patches", "count"},
	{"core.phase1.ms", "ms"},
	{"core.phase1.picked", "count"},
	{"core.phase2.render_ms_per_frame", "ms/frame"},
	{"par.utilization", "frac"},
	{"par.busy_s_per_op", "s"},
	{"runtime.alloc_mib_per_op", "MiB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"server.submit_ms_p50", "ms"},
	{"server.upload_submit_ms_p50", "ms"},
	{"server.start_lag_ms_p50", "ms"},
	{"server.finalize_ms_p50", "ms"},
	{"server.output_ms_p50", "ms"},
	{"server.events_per_job", "count"},
	{"server.refused", "count"},
	{"store.window_ms_p50", "ms"},
	{"store.checkpoints_per_job", "count"},
	{"bench.unattributed_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
}

// print writes the host record, the notes, one line per metric, and the
// result object as the last line.
func (r *result) print(w io.Writer, trace bool) error {
	host, err := json.Marshal(r.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", host)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		x := r.values[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is %v", d.name, x)
		}
		metrics[d.name] = value{x, d.unit}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, x, d.unit)
	}
	out, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
