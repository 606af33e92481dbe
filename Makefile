# VERRO build/test entry points. Everything is stdlib-only Go; no tools
# beyond the go toolchain are required.

GO ?= go

## LINTCACHE: where verrolint's incremental fact cache lives. CI persists
## this directory across runs (keyed on toolchain + analyzer sources), so a
## PR that doesn't touch a package's dependency cone replays its facts
## instead of re-type-checking it.
LINTCACHE ?= .lint-cache

.PHONY: check nightly vet build lint lint-flow lint-absint lint-perf lint-life bench-lint fmt-check test test-stream test-server test-leak race race-par fuzz fuzz-short bench bench-json bench-hotpath bench-compare clean

## check: the PR CI gate — vet, build, verrolint (classic + flow, baselined),
## the interval analyzers (-absint), the performance analyzers (-perf), the
## lifecycle analyzers (-life), gofmt, every package's unit tests (which
## include the golden-hash streaming suite, the memory ceiling, the fuzz
## seed corpora and the full verrod job-service suite), the targeted
## worker-pool race gate, and a short fuzz pass over both the .vvf codec and
## the stream-window planner. Fails on any new lint diagnostic or
## unformatted file. The full -race suite and the long fuzz/benchmark gates
## run in `make nightly` so the PR path stays fast.
check: vet build lint lint-absint lint-perf lint-life fmt-check test race-par fuzz-short

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

## lint: the in-repo static-analysis suite (cmd/verrolint) — the classic
## determinism/privacy-math/panic-freedom analyzers (DESIGN.md §2d) plus the
## verroflow taint analyzers (§2e). Findings recorded in lint-baseline.json
## are absorbed; only new diagnostics fail.
lint:
	$(GO) run ./cmd/verrolint -cache $(LINTCACHE) -baseline lint-baseline.json ./...

## lint-flow: only the taint-tracking dataflow analyzers (privleak,
## epsconsist, epshttp, capturerace), without the classic suite or the
## baseline.
lint-flow:
	$(GO) run ./cmd/verrolint -classic=false -cache $(LINTCACHE) ./...

## lint-absint: only the interval abstract-interpretation analyzers
## (probrange, divzero, idxbound — DESIGN.md §2f), sharing the same
## baseline file; analyzer names are unique across all three suites, so
## the multiset diff cannot collide across passes.
lint-absint:
	$(GO) run ./cmd/verrolint -classic=false -flow=false -absint -cache $(LINTCACHE) -baseline lint-baseline.json ./...

## lint-perf: only the hot-path performance analyzers (hotalloc, hotescape,
## bce — DESIGN.md §2j). No baseline: the tree must sweep clean, with
## deliberate exceptions carrying justified //lint:allow directives (which
## the stale-allow pass keeps honest).
lint-perf:
	$(GO) run ./cmd/verrolint -classic=false -flow=false -perf -cache $(LINTCACHE) ./...

## lint-life: only the lifecycle analyzers (goleak, mustclose, lockorder,
## ctxflow — DESIGN.md §2k), scoped to the service-arc packages. No
## baseline: the tree must sweep clean, with deliberate exceptions carrying
## justified //lint:allow directives (kept honest by the stale-allow pass).
lint-life:
	$(GO) run ./cmd/verrolint -classic=false -flow=false -life -cache $(LINTCACHE) ./...

## bench-lint: regenerate BENCH_lint.json — wall time of a cold incremental
## run (cache populated from scratch) vs. a warm replay of the whole repo
## with every suite enabled.
bench-lint:
	rm -rf $(LINTCACHE)
	$(GO) run ./cmd/verrolint -absint -cache $(LINTCACHE) -bench BENCH_lint.json ./...

## fmt-check: fail if any tracked Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

## test-stream: the bounded-memory streaming gate — golden hashes per
## preset and bit-identity with the whole-clip run over every window ×
## worker combination, the disk-to-disk file path, the end-of-stream edge
## cases, the fuzz seed corpus, and the 4×-clip/1.3×-heap memory ceiling
## (stream_*_test.go plus the internal/stream and internal/vid window
## tests). A subset of `make test`.
test-stream:
	$(GO) test -run 'TestStream|FuzzStreamWindow' .
	$(GO) test ./internal/stream/ ./internal/vid/

## test-server: the verrod job-service gate — store round-trip/atomicity,
## resumable-cursor equivalence, job lifecycle, 429 admission control +
## rate limiting, SSE monotonic window progress, event-log eviction, and
## the kill-and-resume acceptance test asserting the resumed .vvf is
## byte-identical to an uninterrupted run's. -short skips only the
## job-churn leak harness, which has its own target below. `make test`
## runs the whole suite without -short.
test-server:
	$(GO) test -run 'TestSanitizeStreamFrom' ./internal/core/
	$(GO) test -short ./internal/store/ ./internal/server/

## test-leak: the job-churn leak harness (leak_test.go) — 200+ jobs through
## every lifecycle shape (sequential, slot-saturating concurrent batches,
## SSE subscribers yanked mid-stream, checkpoint resume re-runs), then
## asserts goroutines, file descriptors, event logs, and post-GC heap all
## return to the pre-churn baseline. The runtime complement of
## `make lint-life`; `make nightly` repeats it under -race via the full
## race suite.
test-leak:
	$(GO) test -run TestChurnNoLeaks -count=1 -v ./internal/server/

race:
	$(GO) test -race ./...

## race-par: the targeted race gate — worker-pool equivalence, the scoped
## concurrent-sanitize test, the streaming equivalence matrix (whose
## per-window render fan-out is the newest pool user), and the verrod
## handlers (concurrent jobs + SSE subscribers share the trace-observer
## path) under the race detector. A fast early failure before the full
## race suite.
race-par:
	$(GO) test -race -run 'TestParallelEquivalence|TestConcurrentSanitizeScopedWorkers|TestStreamEquivalence' .
	$(GO) test -race -run 'TestJobLifecycle|TestAdmissionControl|TestEventsMonotonicWindowProgress' ./internal/server/
	$(GO) test -race ./internal/store/ ./internal/stream/ ./internal/lint/incr/

## fuzz: a short .vvf codec fuzz pass; lengthen with FUZZTIME=60s.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzVVF -fuzztime=$(FUZZTIME) ./internal/vid/

## fuzz-short: the CI fuzz gate — 10s each on the .vvf codec decoder and
## the stream-window planner, the two parser-shaped surfaces.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzVVF -fuzztime=10s ./internal/vid/
	$(GO) test -run='^$$' -fuzz=FuzzStreamWindow -fuzztime=10s .

## bench: every benchmark once (paper tables/figures + worker-pool paths).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

## bench-json: regenerate BENCH_parallel.json (worker-pool ns/op at 1 vs 4
## workers, best of 3 runs — the recorder keeps the minimum per name).
bench-json:
	VERRO_BENCH_JSON=BENCH_parallel.json $(GO) test -run='^$$' -bench=BenchmarkPar -benchtime=2x -count=3 .

## bench-hotpath: regenerate the measured side of BENCH_hotpath.json (the
## single-threaded kernel hot paths). Note this rewrites the file in the
## plain recorder schema — the committed baseline_ns_per_op/speedup fields
## document the pre-sweep tree and are historical.
bench-hotpath:
	VERRO_BENCH_JSON=BENCH_hotpath.json $(GO) test -run='^$$' -bench=BenchmarkHot -benchtime=50x .

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
