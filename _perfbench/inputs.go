package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"verro"
)

// inputSpec names one generated input: a benchmark preset at a scale,
// rendered from the workload seed.
type inputSpec struct {
	Preset string
	Scale  float64
}

// input is a generated clip on disk with its ground-truth tracks.
type input struct {
	Video, Tracks string
	W, H, Frames  int
}

// inputDigest is the record kept beside a cached input: the sha256 of each
// file as generated and the generator fingerprint that produced them.
type inputDigest struct {
	Generator string `json:"generator"`
	Video     string `json:"video_sha256"`
	Tracks    string `json:"tracks_sha256"`
	W         int    `json:"w"`
	H         int    `json:"h"`
	Frames    int    `json:"frames"`
}

// preset resolves the spec to the scaled benchmark preset.
func (s inputSpec) preset() (verro.Preset, error) {
	p, err := verro.BenchmarkPreset(s.Preset)
	if err == nil && s.Scale < 1 {
		p = p.Scaled(s.Scale)
	}
	return p, err
}

// ensureInput returns the input for (spec, seed), generating it under dir
// unless a cached copy made by the same generator still matches its
// digest. The generator fingerprint is the hash of this executable, which
// embeds the scene generator and the codec, so a cached file can never
// outlive the code that wrote it.
func ensureInput(dir string, spec inputSpec, seed int64, generator string) (input, error) {
	p, err := spec.preset()
	if err != nil {
		return input{}, err
	}
	// The seed names the clip: each seed's input is its own file, with its
	// own header and bytes, over the preset's scene. Reseeding the scene
	// itself moves the work by tens of percent (other backgrounds and
	// trajectories), and even a ±1 sensor dither moves the artifact size by
	// 6–10%, so both would drown the run-to-run comparison this benchmark
	// exists for.
	p.Name = fmt.Sprintf("%s-seed%d", p.Name, seed)
	base := filepath.Join(dir, p.Name)
	in := input{Video: base + ".vvf", Tracks: base + "-gt.csv"}
	digestPath := base + ".digest.json"
	if d, ok := cachedDigest(digestPath, in, generator); ok {
		in.W, in.H, in.Frames = d.W, d.H, d.Frames
		return in, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return input{}, err
	}
	g, err := verro.GenerateBenchmark(p)
	if err != nil {
		return input{}, fmt.Errorf("generate %s: %w", p.Name, err)
	}
	if _, err := verro.WriteVideo(in.Video, g.Video); err != nil {
		return input{}, fmt.Errorf("write input: %w", err)
	}
	if err := verro.SaveTracks(in.Tracks, g.Truth); err != nil {
		return input{}, fmt.Errorf("write tracks: %w", err)
	}
	d := inputDigest{Generator: generator, W: p.W, H: p.H, Frames: p.Frames}
	if d.Video, err = fileSHA256(in.Video); err != nil {
		return input{}, err
	}
	if d.Tracks, err = fileSHA256(in.Tracks); err != nil {
		return input{}, err
	}
	data, err := json.Marshal(d)
	if err != nil {
		return input{}, err
	}
	if err := os.WriteFile(digestPath, data, 0o644); err != nil {
		return input{}, err
	}
	in.W, in.H, in.Frames = d.W, d.H, d.Frames
	return in, nil
}

// cachedDigest reports whether the files at in still hash to the digest
// recorded for them by this generator.
func cachedDigest(path string, in input, generator string) (inputDigest, bool) {
	var d inputDigest
	data, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(data, &d) != nil || d.Generator != generator {
		return d, false
	}
	v, err1 := fileSHA256(in.Video)
	t, err2 := fileSHA256(in.Tracks)
	return d, err1 == nil && err2 == nil && v == d.Video && t == d.Tracks
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// executableDigest fingerprints the running benchmark binary.
func executableDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return fileSHA256(exe)
}
