package verro

// FuzzStreamWindow throws arbitrary clip-length/window-budget combinations
// at the streaming pipeline — window larger than the clip, window of one
// frame, budgets that divide the clip evenly or leave a one-frame tail, the
// empty clip — and holds it to two properties: it never panics, and
// whenever the whole-clip run succeeds the windowed run produces the
// byte-identical encoded output (and the same recovered tracks). Run the
// seed corpus with `go test -run FuzzStreamWindow`; fuzz with
// `go test -fuzz FuzzStreamWindow`.

import (
	"bytes"
	"reflect"
	"testing"

	"verro/internal/vid"
)

func FuzzStreamWindow(f *testing.F) {
	// Seeds cover the acceptance-criteria shapes: empty clip, single frame,
	// window == 1, window == clip, window > clip, partial final window.
	f.Add(uint8(0), int16(4))
	f.Add(uint8(1), int16(1))
	f.Add(uint8(12), int16(1))
	f.Add(uint8(12), int16(12))
	f.Add(uint8(12), int16(64))
	f.Add(uint8(21), int16(9))
	f.Add(uint8(40), int16(16))

	f.Fuzz(func(t *testing.T, nFrames uint8, window int16) {
		frames := int(nFrames) % 41 // keep each case tiny on a 1-CPU host
		w := int(window)
		if w < 1 {
			w = 1
		}

		preset, err := BenchmarkPreset("MOT01")
		if err != nil {
			t.Fatal(err)
		}
		p := preset.Scaled(0.15)
		p.Frames = frames
		p.Name = "fuzz"
		p.Objects = 2

		if frames == 0 {
			// The generator refuses empty presets; the pipeline must refuse
			// empty videos without panicking, whole-clip or windowed.
			v := NewVideo("fuzz-empty", p.W, p.H, p.FPS)
			if _, err := DetectAndTrack(v, DefaultPipelineConfig()); err == nil {
				t.Fatal("whole-clip DetectAndTrack accepted an empty clip")
			}
			pcfg := DefaultPipelineConfig()
			pcfg.WindowFrames = w
			if _, err := DetectAndTrack(v, pcfg); err == nil {
				t.Fatal("windowed DetectAndTrack accepted an empty clip")
			}
			return
		}

		g, err := GenerateBenchmark(p)
		if err != nil {
			t.Fatal(err)
		}

		// Whole-clip reference. Tiny degenerate clips may be legitimately
		// rejected (e.g. no objects survive tracking); the property then is
		// that the windowed run rejects them too instead of panicking.
		wholeTracks, wholeErr := DetectAndTrack(g.Video, DefaultPipelineConfig())
		pcfg := DefaultPipelineConfig()
		pcfg.WindowFrames = w
		windowTracks, windowErr := DetectAndTrack(g.Video, pcfg)
		if (wholeErr == nil) != (windowErr == nil) {
			t.Fatalf("track recovery disagreement: whole-clip err=%v, windowed err=%v", wholeErr, windowErr)
		}
		if wholeErr != nil {
			return
		}
		if !reflect.DeepEqual(wholeTracks, windowTracks) {
			t.Fatalf("tracks differ for %d frames at window %d", frames, w)
		}

		cfg := DefaultConfig()
		cfg.Seed = 3
		wholeRes, wholeErr := Sanitize(g.Video, wholeTracks, cfg)
		wcfg := cfg
		wcfg.WindowFrames = w
		windowRes, windowErr := Sanitize(g.Video, windowTracks, wcfg)
		if (wholeErr == nil) != (windowErr == nil) {
			t.Fatalf("sanitize disagreement: whole-clip err=%v, windowed err=%v", wholeErr, windowErr)
		}
		if wholeErr != nil {
			return
		}
		var wholeBuf, windowBuf bytes.Buffer
		if _, err := vid.Encode(&wholeBuf, wholeRes.Synthetic); err != nil {
			t.Fatal(err)
		}
		if _, err := vid.Encode(&windowBuf, windowRes.Synthetic); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wholeBuf.Bytes(), windowBuf.Bytes()) {
			t.Fatalf("encoded outputs differ for %d frames at window %d", frames, w)
		}
	})
}
