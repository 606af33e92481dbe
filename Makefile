# VERRO build/test entry points. Everything is stdlib-only Go; no tools
# beyond the go toolchain are required.

GO ?= go

.PHONY: check nightly vet build lint fmt-check test test-leak race race-par fuzz fuzz-short bench bench-json bench-hotpath bench-compare clean

## check: the PR CI gate — vet, build, one verrolint run, gofmt, every
## package's unit tests (which include the golden-hash streaming suite, the
## memory ceiling, the fuzz seed corpora, the full verrod job-service suite,
## and the hot-path compiler-facts and allocation-shape gates), the targeted
## race gate (race-par), and a short fuzz pass over both the .vvf codec and
## the stream-window planner. Fails on any lint diagnostic or unformatted
## file. The full -race suite and the long fuzz/benchmark gates run in
## `make nightly` so the PR path stays fast.
check: vet build lint fmt-check test race-par fuzz-short

## nightly: the slow gate (see .github/workflows/nightly.yml) — the whole
## PR gate plus the full race suite (which runs the job-churn leak harness
## under the race detector), a long fuzz pass on both fuzz targets, and the
## benchmark regression comparison against the committed BENCH_*.json
## records.
nightly: check race
	$(MAKE) fuzz FUZZTIME=150s
	$(GO) test -run='^$$' -fuzz=FuzzStreamWindow -fuzztime=150s .
	$(MAKE) bench-compare

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## lint: the in-repo static-analysis suite (cmd/verrolint) in one plain
## pass over the packages `go list ./...` names — one analyzer list on one
## framework (internal/lint): the classic determinism analyzers (DESIGN.md
## §2d) and the verroflow taint analyzers (§2e, §2i). Every diagnostic
## fails, and so does a package that does not type-check and a
## //lint:allow that names no analyzer or suppresses nothing. `go test
## ./...` runs the same pass (TestRunModuleClean); this target is the
## entry point for people.
lint:
	$(GO) run ./cmd/verrolint ./...

## fmt-check: fail if any tracked Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

## test-leak: the job-churn leak harness (leak_test.go). An open-files
## phase runs one job or refused admission of every shape that opens a
## file with the garbage collector off, and counts file descriptors before
## any collection, so a file dropped without Close is still open. Then
## 200+ jobs through every lifecycle shape (sequential, slot-saturating
## concurrent batches, SSE subscribers yanked mid-stream, checkpoint
## resume re-runs), after which goroutines, file descriptors, event logs,
## and post-GC heap must all return to the pre-churn baseline. The
## runtime holder of verrod's goroutine, file, lock and cancellation
## discipline (DESIGN.md §2k); `make nightly` repeats it under -race via
## the full race suite.
test-leak:
	$(GO) test -run TestChurnNoLeaks -count=1 -v ./internal/server/

race:
	$(GO) test -race ./...

## race-par: the targeted race gate, a fast early failure before the full
## race suite. Under the race detector it runs worker-pool equivalence,
## the scoped concurrent-sanitize test, the streaming equivalence matrix
## (whose per-window render fan-out is the newest pool user), the per-class
## matrix and one-class pin (the same fan-out drawing several classes'
## sprites per frame from one merged plan), the verrod handlers (concurrent
## jobs + SSE subscribers share the trace-observer path), and every test of
## internal/store, internal/stream, internal/track and internal/vid: the
## .vvf codec and its member inflate goroutines, which hand each inflated
## member to the cursor over a channel, vid.FileSource's read-ahead
## goroutine, which owns the source's cursor and its raw-pixel spill while
## a window is in flight, and
## the tracker's runner, which rebinds its detector to each window's detect
## span between the pool passes whose workers add to it.
race-par:
	$(GO) test -race -run 'TestParallelEquivalence|TestConcurrentSanitizeScopedWorkers|TestStreamEquivalence' .
	$(GO) test -race -run 'TestSanitizePerClassMatrix|TestSanitizeMultiTypeSingleClassMatchesRegularShape' ./internal/core/
	$(GO) test -race -run 'TestJobLifecycle|TestAdmissionControl|TestEventsMonotonicWindowProgress' ./internal/server/
	$(GO) test -race ./internal/store/ ./internal/stream/ ./internal/track/ ./internal/vid/

## fuzz: a short .vvf codec fuzz pass; lengthen with FUZZTIME=60s. Each
## new-coverage input is minimized for at most 1s, as in fuzz-short: by
## default the minimizer of FuzzVVF's valid-stream descendants holds the
## workers at 0 execs/s for most of a short run.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzVVF -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/vid/

## fuzz-short: the CI fuzz gate — 10s each on the .vvf codec decoder and
## the stream-window planner, the two parser-shaped surfaces. FuzzVVF
## minimizes each new-coverage input for at most 1s: by default the
## minimizer of its 1–2 KB valid-stream descendants kept both workers busy
## for most of the 10s, so the gate hardly fuzzed. A crasher is still
## reported, minimized for at most 1s.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzVVF -fuzztime=10s -fuzzminimizetime=1s ./internal/vid/
	$(GO) test -run='^$$' -fuzz=FuzzStreamWindow -fuzztime=10s .

## bench: every benchmark once (paper tables/figures + worker-pool paths).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

## bench-json: regenerate BENCH_parallel.json (worker-pool ns/op on one
## worker and on one worker per core, named workers=1 and workers=ncpu;
## best of 3 runs — the recorder keeps the minimum per name).
bench-json:
	VERRO_BENCH_JSON=BENCH_parallel.json $(GO) test -run='^$$' -bench=BenchmarkPar -benchtime=2x -count=3 .

## bench-hotpath: regenerate BENCH_hotpath.json, the ns/op reference of the
## single-threaded kernel hot paths (bench_hotpath_test.go), with the recipe
## bench-compare measures against it: best of 3 runs of 20 iterations each
## (the recorder keeps the minimum per name).
bench-hotpath:
	VERRO_BENCH_JSON=BENCH_hotpath.json $(GO) test -run='^$$' -bench=BenchmarkHot -benchtime=20x -count=3 .

## bench-compare: the benchmark regression gate — re-measure the worker-pool
## and hot-path benchmarks into a scratch dir and fail if any committed
## reference number regressed by more than 15% (cmd/benchcmp).
BENCHTMP ?= .bench-tmp
bench-compare:
	@mkdir -p $(BENCHTMP)
	VERRO_BENCH_JSON=$(BENCHTMP)/parallel.json $(GO) test -run='^$$' -bench=BenchmarkPar -benchtime=2x -count=3 .
	VERRO_BENCH_JSON=$(BENCHTMP)/hotpath.json $(GO) test -run='^$$' -bench=BenchmarkHot -benchtime=20x -count=3 .
	$(GO) run ./cmd/benchcmp -ref BENCH_parallel.json -new $(BENCHTMP)/parallel.json -tolerance 0.15
	$(GO) run ./cmd/benchcmp -ref BENCH_hotpath.json -new $(BENCHTMP)/hotpath.json -tolerance 0.15

clean:
	rm -rf results $(BENCHTMP)
