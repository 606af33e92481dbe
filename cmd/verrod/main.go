// Command verrod serves VERRO sanitization as a service: a long-running
// HTTP job server over the streaming pipeline, with window-granularity
// checkpointing so a killed server resumes half-finished videos on restart
// — the final .vvf is byte-identical to an uninterrupted run's.
//
// Usage:
//
//	verrod [-addr localhost:8077] [-data verrod-data]
//	       [-max-jobs 2] [-window 64] [-workers 0] [-no-resume]
//	       [-rate 0] [-burst 5]
//
// API (see DESIGN.md §2h for the full schemas):
//
//	POST /jobs              submit a job: JSON {"input","tracks","f","eps",
//	                        "seed","window","workers"}, or an
//	                        application/octet-stream upload with the same
//	                        parameters as query values. 429 when every
//	                        worker slot is taken, or (with -rate) when a
//	                        client submits faster than its token bucket
//	                        refills — the response carries Retry-After.
//	GET  /jobs              list all jobs
//	GET  /jobs/{id}         job status: state, checkpoint cursor, per-window
//	                        privacy ledger
//	GET  /jobs/{id}/events  live progress as Server-Sent Events
//	GET  /jobs/{id}/output  the final sanitized .vvf
//
// On startup verrod rescans its data directory and resumes every job a
// previous process left unfinished, from its last durable checkpoint.
// Stopping the server (SIGINT/SIGTERM) leaves running jobs checkpointed on
// disk; they resume on the next start.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"verro/internal/obs"
	"verro/internal/server"
	"verro/internal/store"
)

type options struct {
	addr     string
	data     string
	maxJobs  int
	window   int
	workers  int
	noResume bool
	rate     float64
	burst    int
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", "localhost:8077", "listen address")
	flag.StringVar(&opt.data, "data", "verrod-data", "job store directory (manifests, staging, artifacts)")
	flag.IntVar(&opt.maxJobs, "max-jobs", 2, "concurrently executing jobs; submissions above this are rejected with 429")
	flag.IntVar(&opt.window, "window", 64, "default streaming window in frames (checkpoints land on these boundaries)")
	flag.IntVar(&opt.workers, "workers", 0, "default per-job worker-pool size (0 = GOMAXPROCS; output is identical at any setting)")
	flag.BoolVar(&opt.noResume, "no-resume", false, "do not resume jobs a previous process left unfinished")
	flag.Float64Var(&opt.rate, "rate", 0, "per-client POST /jobs submissions per second (0 = no rate limit)")
	flag.IntVar(&opt.burst, "burst", 5, "token-bucket depth for -rate: submissions a quiet client may burst")
	flag.Parse()
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "verrod:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	fs, err := store.NewFS(opt.data)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Store:   fs,
		MaxJobs: opt.maxJobs,
		Window:  opt.window,
		Workers: opt.workers,
		Rate:    opt.rate,
		Burst:   opt.burst,
		// The limiter's clock is injected at the process edge: wall time is
		// exactly what a rate limit is defined over, and keeping time.Now
		// out of internal/server keeps the service testable on a fake
		// clock. Passing the function (never calling it here) also keeps
		// this binary honest under the walltime lint — no clock *read*
		// happens outside the limiter it parameterizes.
		Now: time.Now,
	})
	if err != nil {
		return err
	}
	if !opt.noResume {
		n, err := srv.ResumeInterrupted()
		if err != nil {
			return err
		}
		if n > 0 {
			fmt.Printf("verrod: resuming %d interrupted job(s) from %s\n", n, opt.data)
		}
	}

	// The listen happens synchronously so a bad address fails the start
	// instead of surfacing on the first request; the server itself carries
	// the hardened timeouts (slowloris header deadline, no write deadline —
	// SSE streams stay open as long as the job runs).
	hs := obs.NewServer(opt.addr, srv.Handler())
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	fmt.Printf("verrod: serving on http://%s (data %s, %d job slots)\n", ln.Addr(), opt.data, opt.maxJobs)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		fmt.Println("verrod: shutting down; checkpointed jobs resume on next start")
		// Close, not Shutdown: SSE subscribers hold connections open for the
		// life of their job, so a graceful drain would never finish. Running
		// jobs keep their durable checkpoints either way.
		hs.Close()
	}()

	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
