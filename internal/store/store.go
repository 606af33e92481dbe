// Package store persists sanitization-job state for verrod. Each job owns a
// directory holding a JSON manifest (parameters, geometry, checkpoint
// cursor, outcome) plus its artifacts: the crash-tolerant raw staging file
// while the job runs, and the final .vvf once it completes. Every manifest
// write goes through an atomic temp-file-plus-rename, so a server killed at
// any instant leaves either the previous manifest or the new one — never a
// torn half of each — which is what makes window-granularity checkpointing
// trustworthy: the manifest's checkpoint count is always a frame count the
// synced staging file actually holds.
//
// The package deliberately records no wall-clock timestamps: a manifest is
// a pure function of the job's parameters and progress, so resume logic and
// tests can compare manifests byte for byte.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"verro/internal/core"
)

// Job states recorded in a manifest.
const (
	// StatePending: accepted, not yet started (queued for a worker slot).
	StatePending = "pending"
	// StateRunning: a worker owns the job. A manifest found in this state at
	// server startup means the previous process died mid-job — the job is
	// resumable from its checkpoint.
	StateRunning = "running"
	// StateDone: the final artifact is in place; the ledger is complete.
	StateDone = "done"
	// StateFailed: the job errored; Error carries the cause.
	StateFailed = "failed"
)

// Manifest is the persisted record of one sanitization job.
type Manifest struct {
	ID    string `json:"id"`
	State string `json:"state"`

	// Request parameters.
	Input  string  `json:"input"`            // path to the input .vvf
	Tracks string  `json:"tracks,omitempty"` // optional tracks CSV; empty = detect
	F      float64 `json:"f"`                // flip probability (ignored when Eps > 0)
	Eps    float64 `json:"eps,omitempty"`    // total ε budget; Phase I resolves it to f (ResolvedF)
	Seed   int64   `json:"seed"`
	Window int     `json:"window"` // streaming window frames

	// Input geometry, probed at admission so restarts need not trust the
	// input file to still parse before deciding how to resume.
	Name   string  `json:"name"`
	W      int     `json:"w"`
	H      int     `json:"h"`
	Frames int     `json:"frames"`
	FPS    float64 `json:"fps"`
	Moving bool    `json:"moving,omitempty"`

	// CheckpointFrames is the resume cursor: how many output frames are
	// durably staged. Advanced only after the staging file is synced, always
	// a multiple of Window (or the final frame count).
	CheckpointFrames int `json:"checkpoint_frames"`

	// Outcome, populated when State is done (or failed, for Error).
	ResolvedF float64            `json:"resolved_f,omitempty"` // f the run used (F, or Eps resolved over Picked)
	Epsilon   float64            `json:"epsilon,omitempty"`
	Picked    int                `json:"picked,omitempty"`   // key frames given budget
	Retained  int                `json:"retained,omitempty"` // synthetic objects rendered
	Output    string             `json:"output,omitempty"`   // final artifact path
	Ledger    []core.WindowSpend `json:"ledger,omitempty"`   // per-window privacy spend
	Error     string             `json:"error,omitempty"`
}

// FS persists job manifests and owns each job's artifact directory: one
// directory per job under root.
type FS struct {
	root string
}

// NewFS opens (creating if needed) a filesystem store rooted at root.
func NewFS(root string) (*FS, error) {
	if root == "" {
		return nil, fmt.Errorf("store: empty root")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &FS{root: root}, nil
}

// ValidID reports whether id is safe to use as a path component: job IDs
// come back from clients in URLs, so anything that could traverse out of
// the store root is rejected before it touches the filesystem.
func ValidID(id string) bool {
	if id == "" || id == "." || id == ".." || len(id) > 128 {
		return false
	}
	return !strings.ContainsAny(id, "/\\")
}

func (s *FS) dir(id string) string { return filepath.Join(s.root, id) }

// Dir returns (creating if needed) the job's artifact directory.
func (s *FS) Dir(id string) (string, error) {
	if !ValidID(id) {
		return "", fmt.Errorf("store: invalid job id %q", id)
	}
	d := s.dir(id)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	return d, nil
}

// Save durably persists the manifest: it is written to a temp file in the
// job directory, synced, and renamed over manifest.json — atomic on POSIX, so a
// crash leaves either the old manifest or the new one intact. A failed Save
// removes its temp file.
func (s *FS) Save(m *Manifest) (err error) {
	if m == nil {
		return fmt.Errorf("store: nil manifest")
	}
	dir, err := s.Dir(m.ID)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest %s: %w", m.ID, err)
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, "manifest.json.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		f.Close()
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "manifest.json"))
}

// Load reads one job's manifest.
func (s *FS) Load(id string) (*Manifest, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("store: invalid job id %q", id)
	}
	data, err := os.ReadFile(filepath.Join(s.dir(id), "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: manifest %s: %w", id, err)
	}
	if m.ID != id {
		return nil, fmt.Errorf("store: manifest %s claims id %q", id, m.ID)
	}
	return &m, nil
}

// List returns every stored manifest, sorted by ID: one for each directory
// under root that holds a readable manifest. Directories without a manifest (e.g. a job killed
// between Dir and the first Save) are skipped, as is the leftover temp file
// of an interrupted Save.
func (s *FS) List() ([]*Manifest, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var out []*Manifest
	for _, e := range entries {
		if !e.IsDir() || !ValidID(e.Name()) {
			continue
		}
		m, err := s.Load(e.Name())
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Delete removes the job's manifest and artifacts.
func (s *FS) Delete(id string) error {
	if !ValidID(id) {
		return fmt.Errorf("store: invalid job id %q", id)
	}
	return os.RemoveAll(s.dir(id))
}
