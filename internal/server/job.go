package server

import (
	"fmt"
	"os"
	"path/filepath"

	"verro"
	"verro/internal/img"
	"verro/internal/store"
	"verro/internal/vid"
)

// checkpointSink sits between the sanitizer and the raw staging file: after
// every appended render window it syncs the staging file and then persists
// the advanced frame cursor, in that order, so the manifest never promises
// frames the disk does not hold. A kill at any instant therefore loses at
// most one window of work.
type checkpointSink struct {
	raw   *vid.RawStore
	save  func(frames int) error
	after func(frames int) // test hook; nil outside tests
}

func (c *checkpointSink) Append(frames []*img.Image) error {
	if err := c.raw.Append(frames); err != nil {
		return err
	}
	if err := c.raw.Sync(); err != nil {
		return err
	}
	if err := c.save(c.raw.Frames()); err != nil {
		return err
	}
	if c.after != nil {
		c.after(c.raw.Frames())
	}
	return nil
}

// Close is a no-op: the runner owns the staging file's lifecycle (it is
// still needed for the encode pass after the sanitizer closes its sink).
func (c *checkpointSink) Close() error { return nil }

// runJob executes one admitted job to a terminal state. The caller has
// already placed the job's token in s.sem and bumped s.wg.
func (s *Server) runJob(m *store.Manifest) {
	defer s.wg.Done()
	defer func() { <-s.sem }()
	if s.holdStart != nil {
		<-s.holdStart
	}
	l := s.log(m.ID)
	err := s.process(m, l)
	if err != nil {
		m.State = store.StateFailed
		m.Error = err.Error()
		if serr := s.cfg.Store.Save(m); serr != nil {
			// The manifest still says running; a restart will re-run the job
			// from its checkpoint, which is safe (resume is idempotent).
			m.Error = fmt.Sprintf("%v (and saving the failure: %v)", err, serr)
		}
	}
	s.finishJob(m, l)
}

// process runs the pipeline for one job, resuming from the manifest's
// checkpoint. On success the manifest is saved in the done state with the
// privacy ledger and output path filled in.
func (s *Server) process(m *store.Manifest, l *eventLog) (err error) {
	dir, err := s.cfg.Store.Dir(m.ID)
	if err != nil {
		return err
	}
	src, err := verro.OpenVideoSource(m.Input)
	if err != nil {
		return fmt.Errorf("input: %w", err)
	}
	defer src.Close()
	meta := src.Meta()
	if meta.W != m.W || meta.H != m.H || meta.Frames != m.Frames {
		return fmt.Errorf("input %s is now %dx%d/%d frames; admitted as %dx%d/%d — refusing to resume against a changed input",
			m.Input, meta.W, meta.H, meta.Frames, m.W, m.H, m.Frames)
	}

	trace := verro.NewTrace("verrod/" + m.ID)
	trace.Observe(l.append)

	// Tracks: load the provided CSV or run streaming detection+tracking.
	// Both are deterministic, so a resumed job reconstructs the exact same
	// object set the interrupted run saw.
	var tracks *verro.TrackSet
	if m.Tracks != "" {
		tracks, err = verro.LoadTracks(m.Tracks)
		if err != nil {
			return fmt.Errorf("tracks: %w", err)
		}
	} else {
		pcfg := verro.DefaultPipelineConfig()
		pcfg.Trace = trace
		pcfg.WindowFrames = m.Window
		tracks, err = verro.DetectAndTrackStream(src, pcfg)
		if err != nil {
			return err
		}
		if err := src.Reset(); err != nil {
			return err
		}
	}

	cfg := verro.DefaultConfig()
	cfg.Seed = m.Seed
	cfg.Phase1.F = m.F
	// A budget resolves to f inside Phase I over the key frames it picks.
	// Phase I is deterministic for a given seed, so a resumed job lands on
	// the same f the interrupted run used.
	cfg.Phase1.Eps = m.Eps
	cfg.Trace = trace
	cfg.WindowFrames = m.Window
	// The manifest's parameters came off the wire (or back off disk on a
	// resume); nothing downstream may consume them unvalidated. Admission
	// already vetted them, but a manifest is plain JSON anyone could have
	// edited between runs.
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}

	// Staging: reopen at the checkpoint when resuming (torn tails beyond it
	// are truncated away); a staging file that cannot back its checkpoint is
	// discarded and the job restarts from frame zero.
	staging := filepath.Join(dir, "staging.raw")
	var raw *vid.RawStore
	if m.CheckpointFrames > 0 {
		raw, err = vid.OpenRawStore(staging, m.W, m.H, m.CheckpointFrames)
		if err != nil {
			m.CheckpointFrames = 0
			raw = nil
		}
	}
	if raw == nil {
		raw, err = vid.CreateRawStore(staging, m.W, m.H)
		if err != nil {
			return err
		}
	}
	defer raw.Close()

	start := m.CheckpointFrames
	sink := &checkpointSink{
		raw:   raw,
		save:  func(frames int) error { m.CheckpointFrames = frames; return s.cfg.Store.Save(m) },
		after: s.checkpointHook(m.ID),
	}
	res, err := verro.SanitizeStreamFrom(src, tracks, cfg, sink, start)
	if err != nil {
		return err
	}

	// Encode the complete staging file into the final .vvf. The encode pass
	// always reads from frame zero in one continuous run, so the artifact is
	// byte-identical however many kill/resume cycles the staging went
	// through — and byte-identical to the CLI's -window output.
	outPath := filepath.Join(dir, "output.vvf")
	tmp := outPath + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		out.Close()
		if err != nil {
			os.Remove(tmp)
		}
	}()
	// The staging file holds only sanitizer output: checkpointSink is its
	// sole writer, and on resume OpenRawStore re-reads exactly those frames
	// (proven equal to an uninterrupted run by stream_resume_test.go).
	//lint:allow privleak staging contains sanitized frames only; resume equivalence covered by stream_resume_test
	if _, err := raw.EncodeTo(out, verro.StreamOutputMeta(meta), m.Window); err != nil {
		return err
	}
	if err := out.Sync(); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, outPath); err != nil {
		return err
	}

	m.State = store.StateDone
	m.Output = outPath
	m.ResolvedF = res.Phase1.F
	m.Epsilon = res.Epsilon
	m.Picked = len(res.Phase1.Picked)
	m.Retained = res.SyntheticTracks.Len()
	m.Ledger = res.Windows
	if err := s.cfg.Store.Save(m); err != nil {
		return err
	}
	// The staging file has served its purpose; its removal is cosmetic (a
	// done manifest never resumes), so a failure here does not fail the job.
	if err := raw.Close(); err == nil {
		os.Remove(staging)
	}
	return nil
}

// checkpointHook returns the test hook bound to a job ID, or nil.
func (s *Server) checkpointHook(id string) func(int) {
	if s.afterCheckpoint == nil {
		return nil
	}
	return func(frames int) { s.afterCheckpoint(id, frames) }
}
