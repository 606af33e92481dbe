package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	// setupProbes is how many extra cold set-ups an in-process run times in
	// fresh processes, besides its own warm-up op.
	setupProbes = 2
	// serviceSetups is how many verrod spawns a service run times; the last
	// one serves the timed phase.
	serviceSetups = 5
)

// runInproc runs stream-moving: set-up (a cold op here and in fresh
// processes), then back-to-back ops for the run's seconds, every artifact
// checked between ops.
func runInproc(c runConfig, in input, work string, seeds []int64, res *result) error {
	w := &inprocWorkload{in: in, outDir: work}
	chk := newArtifactChecker(in)

	t0 := time.Now()
	warm, err := w.runOp(nil, 0, seeds[0])
	setup := []float64{time.Since(t0).Seconds()}
	if err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	warmSum, err := chk.check(seeds[0], warm.outPath)
	removeQuietly(warm.outPath)
	if err != nil {
		res.fail("warm-up artifact: %v", err)
	}
	for i := 0; i < setupProbes; i++ {
		s, sum, err := runProbe(c)
		if err != nil {
			return err
		}
		setup = append(setup, s)
		if sum != warmSum {
			res.fail("set-up probe artifact %.12s differs from this process's %.12s", sum, warmSum)
		}
	}

	var rec *recorder
	minOps := 3
	if c.trace {
		// Traced and untraced ops alternate, at least two of each.
		rec, minOps = newRecorder(), 4
	}
	var ops []opResult
	start := time.Now()
	for k := 1; time.Since(start) < c.seconds || res.attempted < minOps; k++ {
		seed := seeds[(k/2)%len(seeds)]
		var r *recorder
		if k%2 == 0 {
			r = rec
		}
		// Every op starts from a collected heap, so no op pays for another's
		// garbage.
		runtime.GC()
		op, err := w.runOp(r, k, seed)
		res.attempted++
		if err == nil {
			_, err = chk.check(seed, op.outPath)
		}
		removeQuietly(op.outPath)
		if err != nil {
			res.failed++
			res.fail("op %d (seed %d): %v", k, seed, err)
			continue
		}
		ops = append(ops, op)
	}
	peak, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return err
	}

	var timed, traced []opResult
	for _, op := range ops {
		if op.traced {
			traced = append(traced, op)
		} else {
			timed = append(timed, op)
		}
	}
	if len(timed) == 0 || (c.trace && len(traced) == 0) {
		return fmt.Errorf("no op succeeded")
	}
	var walls, firsts []float64
	var cpu time.Duration
	sizes := map[int64]int64{}
	for _, op := range timed {
		walls = append(walls, op.wall.Seconds())
		firsts = append(firsts, op.firstOutput.Seconds())
		sizes[op.seed] = op.outBytes
		cpu += op.cpu
	}
	frames := float64(len(timed) * in.Frames)
	v := res.values
	v["setup_s"] = median(setup)
	v["op_s_p50"] = median(walls)
	v["first_output_s_p50"] = median(firsts)
	v["frames_per_s"] = frames / sum(walls)
	v["cpu_ms_per_frame"] = 1000 * cpu.Seconds() / frames
	v["peak_rss_mib"] = peak
	v["output_mib"] = meanMiB(sizes)
	res.note("samples: %d timed ops, %d traced ops, %d set-ups %s s", len(timed), len(traced), len(setup), fmtAll(setup))
	res.note("op_s: %s", fmtAll(walls))
	res.note("failed_frac %g (%d of %d ops)", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	if !c.trace {
		return nil
	}
	inprocLayers(v, traced, timed, in.Frames)
	return rec.writeFile(traceFile(c))
}

// inprocLayers derives the per-layer metrics, each the median over the
// traced ops; the untraced ops of the same run give the tracing overhead.
func inprocLayers(v map[string]float64, traced, untraced []opResult, frames int) {
	per := func(f func(op opResult) float64) float64 {
		var xs []float64
		for _, op := range traced {
			xs = append(xs, f(op))
		}
		return median(xs)
	}
	ms := func(op opResult, layer string) float64 { return float64(op.layers[layer]) / 1e6 }
	count := func(name string) float64 {
		return per(func(op opResult) float64 { return float64(op.counters[name]) })
	}
	fr := float64(frames)
	v["vid.decode_ms_per_frame"] = per(func(op opResult) float64 { return ms(op, layerDecode) / float64(op.decoded) })
	v["vid.encode_ms_per_frame"] = per(func(op opResult) float64 { return ms(op, layerEncode) / fr })
	v["vid.decode_passes"] = per(func(op opResult) float64 { return float64(op.decoded) / fr })
	v["detect.ms_per_frame"] = per(func(op opResult) float64 { return ms(op, layerDetect) / fr })
	v["detect.tracks"] = count("tracks_confirmed")
	v["keyframe.ms"] = per(func(op opResult) float64 { return ms(op, layerKeyframe) })
	v["keyframe.key_frames"] = count("key_frames")
	v["inpaint.ms"] = per(func(op opResult) float64 { return ms(op, layerInpaint) })
	v["inpaint.patches"] = count("patches_inpainted")
	v["core.phase1.ms"] = per(func(op opResult) float64 { return ms(op, layerPhase1) })
	v["core.phase1.picked"] = count("keyframes_picked")
	v["core.phase2.render_ms_per_frame"] = per(func(op opResult) float64 { return ms(op, layerPhase2) / fr })
	v["par.utilization"] = per(func(op opResult) float64 {
		return op.poolBusy.Seconds() / (float64(op.poolWorkers) * op.wall.Seconds())
	})
	v["par.busy_s_per_op"] = per(func(op opResult) float64 { return op.poolBusy.Seconds() })
	v["runtime.alloc_mib_per_op"] = per(func(op opResult) float64 { return float64(op.allocBytes) / (1 << 20) })
	v["runtime.gc_cycles_per_op"] = per(func(op opResult) float64 { return float64(op.gcCycles) })
	v["bench.unattributed_frac"] = per(func(op opResult) float64 { return ms(op, unattributed) / (1000 * op.wall.Seconds()) })
	var uw []float64
	for _, op := range untraced {
		uw = append(uw, op.wall.Seconds())
	}
	v["bench.trace_overhead_frac"] = per(func(op opResult) float64 { return op.wall.Seconds() })/median(uw) - 1
}

// runService runs service-jobs: reference outputs in process, set-up (verrod
// spawns, each until GET /jobs answers plus one cold job), then two
// closed-loop clients for the run's seconds against the last verrod.
func runService(c runConfig, in input, work string, seeds []int64, res *result) error {
	refs, err := serviceReference(in, seeds, work)
	if err != nil {
		return err
	}
	video, err := os.ReadFile(in.Video)
	if err != nil {
		return err
	}
	var setup []float64
	var p *verrodProc
	for i := 0; i < serviceSetups; i++ {
		if p != nil {
			p.stop()
		}
		data := filepath.Join(work, fmt.Sprintf("verrod-%d", i))
		t0 := time.Now()
		p, err = startVerrod(c.verrod, data, data+".log")
		if err != nil {
			return err
		}
		cl := newJobClient(p.base, in, video)
		j := cl.run(seeds[0], false, false)
		setup = append(setup, time.Since(t0).Seconds())
		cl.hc.CloseIdleConnections()
		if j.err != nil {
			p.stop()
			return fmt.Errorf("set-up job: %w", j.err)
		}
		if j.sha != refs[seeds[0]] {
			res.fail("set-up job %s artifact %.12s differs from the in-process reference %.12s", j.id, j.sha, refs[seeds[0]])
		}
	}
	defer p.stop()

	pid := p.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	clients := make([]*jobClient, serviceClients)
	for i := range clients {
		clients[i] = newJobClient(p.base, in, video)
	}
	jobs, wall := runClients(clients, seeds, c.seconds, c.trace)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	peak, err := peakRSSMiB(pid)
	if err != nil {
		return err
	}
	for _, cl := range clients {
		cl.hc.CloseIdleConnections()
	}

	// Every artifact must equal the in-process reference for its seed, and
	// every manifest's ledger must recompose to its ε.
	ids := map[string]bool{}
	refused, attempts := 0, 0
	for _, j := range jobs {
		res.attempted++
		refused += j.refused
		attempts += len(j.attempts)
		switch {
		case j.err != nil:
			j.state = "error"
			res.failed++
			res.fail("job %s (seed %d): %v", j.id, j.seed, j.err)
		case j.sha != refs[j.seed]:
			j.state = "wrong"
			res.failed++
			res.fail("job %s (seed %d): artifact %.12s differs from the in-process reference %.12s", j.id, j.seed, j.sha, refs[j.seed])
		default:
			ids[j.id] = true
		}
	}
	bad, err := checkManifests(p.base, ids)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if e, ok := bad[j.id]; ok && j.state == "done" {
			j.state = "wrong"
			res.failed++
			res.fail("job %s manifest: %v", j.id, e)
		}
	}

	var good, timed, traced []*jobRecord
	for _, j := range jobs {
		if j.state != "done" {
			continue
		}
		good = append(good, j)
		if j.traced {
			traced = append(traced, j)
		} else {
			timed = append(timed, j)
		}
	}
	if len(timed) == 0 || (c.trace && len(traced) == 0) {
		return fmt.Errorf("no job succeeded")
	}
	var walls, firsts []float64
	sizes := map[int64]int64{}
	for _, j := range timed {
		walls = append(walls, j.done.Sub(j.start).Seconds())
		if !j.firstWindow.IsZero() {
			firsts = append(firsts, j.firstWindow.Sub(j.start).Seconds())
		}
		sizes[j.seed] = j.outBytes
	}
	if len(firsts) == 0 {
		return fmt.Errorf("no job delivered its progress events")
	}
	frames := float64(len(good) * in.Frames)
	v := res.values
	v["setup_s"] = median(setup)
	v["op_s_p50"] = median(walls)
	v["first_output_s_p50"] = median(firsts)
	v["frames_per_s"] = frames / wall.Seconds()
	v["cpu_ms_per_frame"] = 1000 * (cpu1 - cpu0).Seconds() / frames
	v["peak_rss_mib"] = peak
	v["output_mib"] = meanMiB(sizes)
	res.note("samples: %d timed jobs (%d with progress events), %d traced jobs, %d set-ups %s s", len(walls), len(firsts), len(traced), len(setup), fmtAll(setup))
	// op_s_p90 is reported once ten or more samples lie beyond it.
	if len(walls) >= 100 {
		res.note("op_s_p90 %.6g s (n=%d)", quantile(walls, 0.9), len(walls))
	}
	res.note("refused %d of %d submissions; failed_frac %g ((failed ops + refusals) / submissions)",
		refused, attempts, float64(res.failed+refused)/float64(attempts))
	if !c.trace {
		return nil
	}
	rec := newRecorder()
	for i, j := range jobs {
		if j.traced && j.state == "done" {
			rec.addJob(i+1, j)
		}
	}
	serviceLayers(v, rec, traced, timed, jobs, in.Frames)
	return rec.writeFile(traceFile(c))
}

// addJob records a service job's spans: the client's requests, and under
// the event stream the program's own spans as their events arrived.
func (r *recorder) addJob(op int, j *jobRecord) {
	root := r.add(op, 0, "job", unattributed, j.start, j.done, 0)
	for _, a := range j.attempts {
		r.add(op, root, "POST /jobs", layerSubmit, a.start, a.end, 1)
	}
	ev := r.add(op, root, "GET /events", unattributed, j.accepted, j.endEvent, 1)
	if !j.analysisStart.IsZero() {
		r.add(op, ev, "start lag", layerStartLag, j.accepted, j.analysisStart, 2)
	}
	ids := map[string]int{}
	for _, s := range j.spans {
		if s.parent != "analysis" && s.parent != "phase2" {
			ids[s.name] = r.add(op, ev, s.name, serviceLayer(s.name, s.parent), s.start, s.end, 2)
		}
	}
	for _, s := range j.spans {
		if s.parent == "analysis" || s.parent == "phase2" {
			r.add(op, ids[s.parent], s.name, serviceLayer(s.name, s.parent), s.start, s.end, 3)
		}
	}
	if !j.phase2End.IsZero() {
		r.add(op, ev, "finalize", layerFinalize, j.phase2End, j.endEvent, 2)
	}
	r.add(op, root, "GET /output", layerOutput, j.output, j.done, 1)
}

// serviceLayer maps the span names on verrod's event stream to layers. The
// render windows of phase2 each append to the staging file, fsync it and
// save the manifest, so they are the store layer; their render time is not
// separable from outside the program.
func serviceLayer(name, parent string) string {
	if parent == "phase2" && strings.HasPrefix(name, "window@") {
		return layerStore
	}
	return inprocLayer(name, parent)
}

// serviceLayers derives the per-layer metrics of service-jobs, each the
// median over traced jobs.
func serviceLayers(v map[string]float64, rec *recorder, traced, untraced, all []*jobRecord, frames int) {
	type jobLayers struct {
		j      *jobRecord
		layers map[string]time.Duration
	}
	var tl []jobLayers
	for i, j := range all {
		if j.traced && j.state == "done" {
			tl = append(tl, jobLayers{j, rec.attribute(i + 1)})
		}
	}
	per := func(f func(jl jobLayers) (float64, bool)) float64 {
		var xs []float64
		for _, jl := range tl {
			if x, ok := f(jl); ok {
				xs = append(xs, x)
			}
		}
		return median(xs)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	layer := func(name string) float64 {
		return per(func(jl jobLayers) (float64, bool) { return ms(jl.layers[name]), true })
	}
	count := func(name string) float64 {
		return per(func(jl jobLayers) (float64, bool) { return float64(jl.j.counters[name]), true })
	}
	submit := func(upload bool) float64 {
		return per(func(jl jobLayers) (float64, bool) {
			a := jl.j.attempts[len(jl.j.attempts)-1]
			return ms(a.end.Sub(a.start)), jl.j.upload == upload
		})
	}
	v["keyframe.ms"] = layer(layerKeyframe)
	v["keyframe.key_frames"] = count("key_frames")
	v["inpaint.ms"] = layer(layerInpaint)
	v["inpaint.patches"] = count("patches_inpainted")
	v["core.phase1.ms"] = layer(layerPhase1)
	v["core.phase1.picked"] = count("keyframes_picked")
	v["core.phase2.render_ms_per_frame"] = layer(layerPhase2) / float64(frames)
	v["server.submit_ms_p50"] = submit(false)
	v["server.upload_submit_ms_p50"] = submit(true)
	v["server.start_lag_ms_p50"] = per(func(jl jobLayers) (float64, bool) {
		return ms(jl.j.analysisStart.Sub(jl.j.accepted)), !jl.j.analysisStart.IsZero()
	})
	v["server.finalize_ms_p50"] = per(func(jl jobLayers) (float64, bool) {
		return ms(jl.j.endEvent.Sub(jl.j.phase2End)), !jl.j.phase2End.IsZero()
	})
	v["server.output_ms_p50"] = per(func(jl jobLayers) (float64, bool) { return ms(jl.j.done.Sub(jl.j.output)), true })
	v["server.events_per_job"] = per(func(jl jobLayers) (float64, bool) { return float64(jl.j.events), true })
	refused := 0
	for _, j := range all {
		refused += j.refused
	}
	v["server.refused"] = float64(refused)
	var wins []float64
	for _, jl := range tl {
		for _, d := range jl.j.windowDurs {
			wins = append(wins, ms(d))
		}
	}
	v["store.window_ms_p50"] = median(wins)
	v["store.checkpoints_per_job"] = per(func(jl jobLayers) (float64, bool) { return float64(len(jl.j.windowDurs)), true })
	v["bench.unattributed_frac"] = per(func(jl jobLayers) (float64, bool) {
		return float64(jl.layers[unattributed]) / float64(jl.j.done.Sub(jl.j.start)), true
	})
	wall := func(js []*jobRecord) float64 {
		var xs []float64
		for _, j := range js {
			xs = append(xs, j.done.Sub(j.start).Seconds())
		}
		return median(xs)
	}
	v["bench.trace_overhead_frac"] = wall(traced)/wall(untraced) - 1
}

// meanMiB is the mean artifact size over the sanitizer seeds, each counted
// once: artifacts are deterministic per (input, seed), so this does not
// depend on how many ops each seed got.
func meanMiB(sizes map[int64]int64) float64 {
	total := 0.0
	for _, n := range sizes {
		total += float64(n)
	}
	return total / float64(len(sizes)) / (1 << 20)
}

// fmtAll formats values for a note line.
func fmtAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", math.Round(x*1e4)/1e4)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
