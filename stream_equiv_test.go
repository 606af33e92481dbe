package verro

// The streaming-equivalence suite pins the published artifacts of the
// sanitization pipeline by bytes. For each benchmark preset it records the
// sha256 of the recovered-tracks CSV, the synthetic-tracks CSV and the
// encoded .vvf of a whole-clip run, the ε bits, and the window-16 privacy
// ledger (streamGolden). Every window size × worker count must then
// reproduce the whole-clip run's artifacts byte for byte in the same
// process, because windowing is a memory strategy, not a semantic knob, and
// the per-window ledger must recompose to the run's ε exactly: integer
// picked-key-frame counts per window sum to K, and the recomposed
// K·ln((2−f)/f) equals Epsilon bit for bit.
//
// The committed hashes are compared on GOARCH=amd64 only: the Go spec lets
// other targets fuse x*y+z into one rounding, which may move a float
// comparison somewhere in the pipeline. The in-process comparisons hold on
// every target.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"verro/internal/vid"
)

// goldenArtifacts is one preset's pinned output: hex sha256 digests plus the
// raw bits of ε.
type goldenArtifacts struct {
	tracks    string // recovered-tracks CSV
	synTracks string // synthetic-tracks CSV
	vvf       string // encoded synthetic .vvf
	eps       uint64 // math.Float64bits(Result.Epsilon)
	ledger16  string // ledgerDigest of the window-16 run
}

// streamGolden pins the seed-7 pipeline on each preset at equivScale.
var streamGolden = map[string]goldenArtifacts{
	"MOT01": {
		tracks:    "d53baec3e846e548d0c6d47e457ee4b6b37635ae40619e08edb080b3c546d73d",
		synTracks: "24af1a97f3f68f87d43e88d6062b84f40693236b202b9c32e56f4671aecf8133",
		vvf:       "fad926316ac255fa5ea6e59f5f53c85d6bef438644c098da2551f449cf0dd83c",
		eps:       0x404a7ffcc6c54992,
		ledger16:  "92c365bdc3fcaaf04a59caec57e0a5ad798714dcd4195e7ea243a02bd10e43cf",
	},
	"MOT03": {
		tracks:    "64b4bf3be95be67c458aa1c307c769a7b195fd5a2256e4e7a2ea41b1aceb68ca",
		synTracks: "5f613db839507e91125d8f03cdd493d0c489908c3880adfd228ac6d98f092b66",
		vvf:       "75940cc09d7e4e26a562c7566113ecb45ef004168e2313d98c6145c1fc6883d3",
		eps:       0x404eeaa6e7e62b2a,
		ledger16:  "595c60c99ee7e6bd3c82f7605ba4061555618a2c3f966aeb72411aea5bd49255",
	},
	"MOT06": {
		tracks:    "93ba4bf74a5d17696f246596a585edcebbee14177074d931999ee25fb6e3fb81",
		synTracks: "44d09419ffe4464a5e90e79ba99ec999619ee048f0a62f0179c5a85607012004",
		vvf:       "13dfbb00fbed038e136495c368d0e2be0133b0bed2c1e2a46ab76ea7a5ad9003",
		eps:       0x404907196664fe5f,
		ledger16:  "cf01bf572f6691a33eec082e76e82d2c6b3e1c8dc557fe0b79bfe7e60f85d72f",
	},
}

// checkGoldenHashes reports whether the committed hashes apply on this
// target (see the file comment).
func checkGoldenHashes() bool { return runtime.GOARCH == "amd64" }

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// csvDigest hashes a track set's CSV serialization.
func csvDigest(t *testing.T, ts *TrackSet) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256Hex(buf.Bytes())
}

// ledgerDigest hashes a per-window privacy ledger, ε entries by their bits.
func ledgerDigest(ledger []WindowSpend) string {
	var buf bytes.Buffer
	for _, w := range ledger {
		fmt.Fprintf(&buf, "%d %d %d %016x\n", w.Start, w.Frames, w.Picked, math.Float64bits(w.Epsilon))
	}
	return sha256Hex(buf.Bytes())
}

// checkGolden compares a whole-clip run with the committed hashes; the
// ledger digest is checked on the window-16 run instead.
func checkGolden(t *testing.T, name string, a pipelineArtifacts, res *Result) {
	t.Helper()
	if !checkGoldenHashes() {
		t.Logf("GOARCH=%s: committed hashes not checked", runtime.GOARCH)
		return
	}
	want := streamGolden[name]
	got := goldenArtifacts{
		tracks:    csvDigest(t, a.tracks),
		synTracks: csvDigest(t, a.synTracks),
		vvf:       sha256Hex(a.encoded),
		eps:       math.Float64bits(res.Epsilon),
		ledger16:  want.ledger16,
	}
	if got != want {
		t.Errorf("%s golden mismatch:\n got  %#v\n want %#v", name, got, want)
	}
}

// streamEquivCases are the window budgets the acceptance criteria name:
// small overlapping-run windows, a mid window, a window larger than the
// scaled clips, and 0 for one whole-clip window.
var streamEquivCases = []int{9, 16, 64, 0}

// checkWindowLedger verifies the per-window privacy accounting recomposes
// exactly: windows partition the clip, integer picked counts sum to the
// run's K, and the closed-form total over that K equals the run's ε with
// zero float drift.
func checkWindowLedger(t *testing.T, res *Result, clipLen int) {
	t.Helper()
	if len(res.Windows) == 0 {
		t.Fatal("streaming run recorded no window ledger")
	}
	next, picked := 0, 0
	var epsSum float64
	for i, w := range res.Windows {
		if w.Start != next {
			t.Fatalf("ledger window %d starts at %d, want %d", i, w.Start, next)
		}
		next += w.Frames
		picked += w.Picked
		epsSum += w.Epsilon
	}
	if next != clipLen {
		t.Fatalf("ledger covers %d frames, clip has %d", next, clipLen)
	}
	if picked != len(res.Phase1.Picked) {
		t.Fatalf("ledger picked %d key frames, phase 1 picked %d", picked, len(res.Phase1.Picked))
	}
	recomposed := float64(picked) * math.Log((2-res.Phase1.F)/res.Phase1.F)
	if recomposed != res.Epsilon {
		t.Fatalf("recomposed epsilon %v != run epsilon %v", recomposed, res.Epsilon)
	}
	// The float sum of the per-window entries is the same ledger viewed
	// additively; it may differ from the closed form only by accumulation
	// order, so it gets a tolerance while the integer path above is exact.
	if math.Abs(epsSum-res.Epsilon) > 1e-9*math.Max(1, math.Abs(res.Epsilon)) {
		t.Fatalf("summed window epsilon %v drifts from %v", epsSum, res.Epsilon)
	}
}

// TestStreamEquivalence pins the whole-clip run of each benchmark preset to
// its committed hashes, then proves windowing is memory-only: every
// acceptance-criteria window size and worker count reproduces the whole-clip
// artifacts byte for byte, and its privacy ledger recomposes to ε exactly.
func TestStreamEquivalence(t *testing.T) {
	for _, name := range []string{"MOT01", "MOT03", "MOT06"} {
		t.Run(name, func(t *testing.T) {
			whole, wholeRes := runPipelineWith(t, name, 0, 1, nil)
			checkGolden(t, name, whole, wholeRes)
			for _, window := range streamEquivCases {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("window=%d/workers=%d", window, workers), func(t *testing.T) {
						streamed, res := runPipelineWith(t, name, window, workers, nil)
						compareArtifacts(t, whole, streamed)
						if res.Epsilon != wholeRes.Epsilon {
							t.Errorf("epsilon %v, whole-clip run %v", res.Epsilon, wholeRes.Epsilon)
						}
						checkWindowLedger(t, res, len(whole.synFrames))
						if window == 16 && checkGoldenHashes() {
							if got, want := ledgerDigest(res.Windows), streamGolden[name].ledger16; got != want {
								t.Errorf("%s window-16 ledger digest = %s, want %s", name, got, want)
							}
						}
					})
				}
			}
		})
	}
}

// TestStreamEpsMatchesTwoCallReference pins the ε path against the
// conversion callers used to write by hand: a render-free run to learn K,
// FlipProbability(K, budget), then a run at that f. Phase1Config.Eps must
// publish the same bytes, synthetic tracks, ledger and ε bits in one call,
// streamed in windows and as one whole-clip window.
func TestStreamEpsMatchesTwoCallReference(t *testing.T) {
	const budget = 20.0
	for _, name := range []string{"MOT01", "MOT03", "MOT06"} {
		t.Run(name, func(t *testing.T) {
			preset, err := BenchmarkPreset(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := GenerateBenchmark(preset.Scaled(equivScale))
			if err != nil {
				t.Fatal(err)
			}
			tracks, err := DetectAndTrack(g.Video, DefaultPipelineConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, window := range []int{16, 0} {
				t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Seed = 7
					cfg.WindowFrames = window

					dry := cfg
					dry.Phase2.SkipRender = true
					dryRes, err := Sanitize(g.Video, tracks, dry)
					if err != nil {
						t.Fatal(err)
					}
					ref := cfg
					if ref.Phase1.F, err = FlipProbability(len(dryRes.Phase1.Picked), budget); err != nil {
						t.Fatal(err)
					}
					want, err := Sanitize(g.Video, tracks, ref)
					if err != nil {
						t.Fatal(err)
					}

					cfg.Phase1.Eps = budget
					got, err := Sanitize(g.Video, tracks, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got.Phase1.F != ref.Phase1.F {
						t.Errorf("resolved f %v, reference %v", got.Phase1.F, ref.Phase1.F)
					}
					if math.Float64bits(got.Epsilon) != math.Float64bits(want.Epsilon) {
						t.Errorf("epsilon %v, reference %v", got.Epsilon, want.Epsilon)
					}
					if math.Abs(got.Epsilon-budget) > 1e-9*budget {
						t.Errorf("epsilon %v, budget %v", got.Epsilon, budget)
					}
					if csvDigest(t, got.SyntheticTracks) != csvDigest(t, want.SyntheticTracks) {
						t.Error("synthetic tracks differ from the reference")
					}
					if ledgerDigest(got.Windows) != ledgerDigest(want.Windows) {
						t.Error("ledger differs from the reference")
					}
					checkWindowLedger(t, got, g.Video.Len())
					var gotVVF, wantVVF bytes.Buffer
					if _, err := vid.Encode(&gotVVF, got.Synthetic); err != nil {
						t.Fatal(err)
					}
					if _, err := vid.Encode(&wantVVF, want.Synthetic); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotVVF.Bytes(), wantVVF.Bytes()) {
						t.Error("encoded .vvf differs from the reference")
					}
				})
			}
		})
	}
}

// TestStreamFileToFile proves the full disk-to-disk streaming path — .vvf
// windowed decode, two-pass detect/track, windowed sanitize, windowed .vvf
// encode — writes a file byte-identical to WriteVideo of an in-memory
// whole-clip run, and that the windowed track recovery matches the
// whole-clip tracker.
func TestStreamFileToFile(t *testing.T) {
	preset, err := BenchmarkPreset("MOT01")
	if err != nil {
		t.Fatal(err)
	}
	g, err := GenerateBenchmark(preset.Scaled(equivScale))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.vvf")
	if _, err := WriteVideo(in, g.Video); err != nil {
		t.Fatal(err)
	}

	// Whole-clip reference: everything in memory.
	tracks, err := DetectAndTrack(g.Video, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	res, err := Sanitize(g.Video, tracks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "whole.vvf")
	if _, err := WriteVideo(want, res.Synthetic); err != nil {
		t.Fatal(err)
	}

	// Streaming run: decode from disk in windows, encode to disk in windows.
	const window = 16
	src, err := OpenVideoSource(in)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	pcfg := DefaultPipelineConfig()
	pcfg.WindowFrames = window
	streamTracks, err := DetectAndTrackStream(src, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tracks, streamTracks) {
		t.Fatal("windowed track recovery differs from the whole-clip run")
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	got := filepath.Join(dir, "stream.vvf")
	sink, err := NewVideoSink(got, StreamOutputMeta(src.Meta()))
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.WindowFrames = window
	sres, err := SanitizeStream(src, streamTracks, scfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Synthetic != nil {
		t.Fatal("streaming run materialized the synthetic clip in memory")
	}
	wantBytes, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatal("disk-to-disk streaming output differs from the whole-clip WriteVideo")
	}
	if !reflect.DeepEqual(res.SyntheticTracks, sres.SyntheticTracks) {
		t.Fatal("streaming synthetic tracks differ from the whole-clip run")
	}
}
