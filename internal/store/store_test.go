package store

import (
	"os"
	"path/filepath"
	"testing"

	"verro/internal/core"
)

func TestManifestRoundTrip(t *testing.T) {
	root := t.TempDir()
	s, err := NewFS(root)
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{
		ID: "job-000001", State: StateRunning,
		Input: "/data/in.vvf", Tracks: "/data/tracks.csv",
		F: 0.1, Eps: 2.5, Seed: 42, Window: 16,
		Name: "clip", W: 320, H: 240, Frames: 128, FPS: 30, Moving: true,
		CheckpointFrames: 48,
		Ledger: []core.WindowSpend{
			{Start: 0, Frames: 16, Picked: 2, Epsilon: 1.25},
			{Start: 16, Frames: 16, Picked: 1, Epsilon: 0.75},
		},
	}
	if err := s.Save(m); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.State != m.State || got.Input != m.Input ||
		got.CheckpointFrames != m.CheckpointFrames || got.Frames != m.Frames ||
		got.Eps != m.Eps || got.Seed != m.Seed || len(got.Ledger) != 2 ||
		got.Ledger[1] != m.Ledger[1] {
		t.Fatalf("round trip mangled the manifest: %+v", got)
	}
	// A Save leaves no temp file behind; the rename completed.
	if _, err := os.Stat(filepath.Join(root, m.ID, "manifest.json.tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp file survived the atomic save: %v", err)
	}
}

// TestManifestWithWorkersLoads: a manifest written by an older release
// still holds the per-job "workers" pool size, which no longer exists. It
// loads, and the fields it shares with today's manifest read back.
func TestManifestWithWorkersLoads(t *testing.T) {
	root := t.TempDir()
	s, err := NewFS(root)
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000007"
	if err := os.MkdirAll(filepath.Join(root, id), 0o755); err != nil {
		t.Fatal(err)
	}
	data := `{"id": "job-000007", "state": "running", "input": "/data/in.vvf",
  "f": 0.1, "seed": 42, "window": 16, "workers": 3,
  "name": "clip", "w": 320, "h": 240, "frames": 128, "fps": 30, "checkpoint_frames": 48}
`
	if err := os.WriteFile(filepath.Join(root, id, "manifest.json"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := s.Load(id)
	if err != nil {
		t.Fatalf("a manifest holding workers does not load: %v", err)
	}
	if m.State != StateRunning || m.F != 0.1 || m.Seed != 42 || m.Window != 16 ||
		m.Frames != 128 || m.CheckpointFrames != 48 {
		t.Fatalf("loaded manifest: %+v", m)
	}
	if ms, err := s.List(); err != nil || len(ms) != 1 || ms[0].ID != id {
		t.Fatalf("List = %v, %v; want the one manifest", ms, err)
	}
}

func TestStoreRejectsUnsafeIDs(t *testing.T) {
	s, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", ".", "..", "../escape", "a/b", `a\b`} {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true", id)
		}
		if _, err := s.Load(id); err == nil {
			t.Errorf("Load(%q) accepted an unsafe id", id)
		}
		if _, err := s.Dir(id); err == nil {
			t.Errorf("Dir(%q) accepted an unsafe id", id)
		}
		if err := s.Delete(id); err == nil {
			t.Errorf("Delete(%q) accepted an unsafe id", id)
		}
	}
	if !ValidID("job-000001") {
		t.Error("ValidID rejected a normal id")
	}
}

func TestListSortedAndSkipsIncomplete(t *testing.T) {
	s, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-000003", "job-000001", "job-000002"} {
		if err := s.Save(&Manifest{ID: id, State: StateDone}); err != nil {
			t.Fatal(err)
		}
	}
	// A directory without a manifest (killed between Dir and first Save)
	// must not break listing.
	if _, err := s.Dir("job-000004"); err != nil {
		t.Fatal(err)
	}
	ms, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("List returned %d manifests, want 3", len(ms))
	}
	for i, want := range []string{"job-000001", "job-000002", "job-000003"} {
		if ms[i].ID != want {
			t.Fatalf("List[%d] = %s, want %s", i, ms[i].ID, want)
		}
	}
}

func TestLoadRejectsMismatchedAndCorrupt(t *testing.T) {
	s, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := s.Dir("job-000009")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("job-000009"); err == nil {
		t.Fatal("Load accepted a corrupt manifest")
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"id":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("job-000009"); err == nil {
		t.Fatal("Load accepted a manifest claiming another id")
	}
}

func TestDeleteRemovesArtifacts(t *testing.T) {
	s, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&Manifest{ID: "job-000005", State: StateFailed, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	dir, err := s.Dir("job-000005")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "staging.raw"), []byte("xxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job-000005"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("Delete left the job directory behind")
	}
	ms, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("List after Delete returned %d manifests", len(ms))
	}
}
