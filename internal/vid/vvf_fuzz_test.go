package vid

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"verro/internal/img"
	"verro/internal/stream"
)

// FuzzVVF throws arbitrary byte streams at the .vvf decoder. Invariants:
// Decode must return an error — never panic — on malformed input, and any
// stream it accepts must survive a re-encode/decode round trip bit-exactly.
// Every stream whose header parses is also read from a file by a
// FileSource, in two passes with a Reset between them, and must match the
// Reader call for call: broken streams drive the spill's fallbacks.
//
// Run a longer session with: go test -run=^$ -fuzz=FuzzVVF -fuzztime=60s ./internal/vid/
func FuzzVVF(f *testing.F) {
	seed := func(frames, w, h int, moving bool) []byte {
		v := New("fuzz", w, h, 25)
		v.Moving = moving
		for i := 0; i < frames; i++ {
			fr := img.New(w, h)
			for p := range fr.Pix {
				fr.Pix[p] = uint8(p*31 + i*7)
			}
			if err := v.Append(fr); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := seed(3, 16, 12, true)
	f.Add(valid)
	f.Add(seed(0, 8, 8, false))
	f.Add(seed(1, 1, 1, false))
	f.Add(valid[:len(valid)/2]) // truncated mid-payload
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/2] ^= 0x40
	f.Add(corrupted) // bit flip inside the gzip body
	f.Add([]byte(vvfMagic))
	f.Add([]byte{})
	// A panning clip, whose stream holds shifted frames, and the malformed
	// shifted frames: on frame 0, a zero shift, shifts beyond the search
	// and beyond a frame narrower than it, and streams cut at the shift.
	var pan bytes.Buffer
	if _, err := Encode(&pan, panClip(12, 4, true, 8, 9, 9, 7, 2, 10)); err != nil {
		f.Fatal(err)
	}
	f.Add(pan.Bytes())
	for _, b := range badShiftStreams(f) {
		f.Add(b.data)
	}
	// A body of four blocked members, and the same body broken: a member
	// size past the end, below the member header and into the next
	// member, a bad CRC, a plain gzip member after blocked ones, cuts
	// inside a member and inside its header, and a member that inflates
	// past the bound the header sets.
	f.Add(tinyMembers(f))
	for _, b := range badMemberStreams(f) {
		f.Add(b.data)
	}
	// Two raw frames of no pixels: the first is the second's delta base
	// although it holds no bytes, so its re-encode, a raw frame and a
	// delta, decodes.
	f.Add(vvfStream(f, stream.Meta{Name: "flat", W: 12, H: 0, FPS: 25, Frames: 2}, []byte{frameRaw, frameRaw}))

	f.Fuzz(func(t *testing.T, data []byte) {
		replayTwoPasses(t, data)
		v, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly: that is the contract for garbage input
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, v); err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode of re-encoded stream failed: %v", err)
		}
		// FPS compares by bits: fuzzed headers can carry NaN payloads, which
		// Encode preserves exactly but == would reject.
		if back.W != v.W || back.H != v.H || back.Len() != v.Len() ||
			math.Float64bits(back.FPS) != math.Float64bits(v.FPS) ||
			back.Moving != v.Moving || back.Name != v.Name {
			t.Fatalf("round trip changed header: got %v, want %v", back, v)
		}
		for i := range v.Frames {
			if !bytes.Equal(v.Frame(i).Pix, back.Frame(i).Pix) {
				t.Fatalf("round trip changed frame %d", i)
			}
		}
	})
}

// replayTwoPasses writes data to a file when its header parses and
// replays n Next(2) calls, a Reset and n Next(3) calls on it against the
// Reader. The first pass reads a clip of up to 78 frames to its end; a
// longer one is cut short by the Reset.
func replayTwoPasses(t *testing.T, data []byte) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return
	}
	path := filepath.Join(t.TempDir(), "fuzz.vvf")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	n := min(r.Meta().Frames/2+2, 41)
	var calls []readCall
	for range n {
		calls = append(calls, readCall{budget: 2})
	}
	calls = append(calls, readCall{reset: true})
	for range n {
		calls = append(calls, readCall{budget: 3})
	}
	replay(t, path, calls)
}
