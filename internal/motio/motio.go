// Package motio defines the object-annotation model shared by the scene
// generator, the detector/tracker and the sanitizer — an object is a track:
// a stable ID plus a bounding box in every frame where it is present — and
// provides MOT-challenge-style CSV serialization for ground truth,
// trajectories and the data series behind the paper's figures.
package motio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"verro/internal/geom"
)

// Track is one object across the video: a map from frame index to the
// object's bounding box in that frame.
type Track struct {
	ID    int
	Class string // "pedestrian", "vehicle", ...
	Boxes map[int]geom.Rect
}

// NewTrack returns an empty track for the given object ID.
func NewTrack(id int, class string) *Track {
	return &Track{ID: id, Class: class, Boxes: make(map[int]geom.Rect)}
}

// Set records the object's box in frame k.
func (t *Track) Set(k int, b geom.Rect) { t.Boxes[k] = b }

// Box returns the box in frame k and whether the object is present there.
func (t *Track) Box(k int) (geom.Rect, bool) {
	b, ok := t.Boxes[k]
	return b, ok
}

// Present reports whether the object appears in frame k.
func (t *Track) Present(k int) bool {
	_, ok := t.Boxes[k]
	return ok
}

// Frames returns the sorted frame indices in which the object appears.
func (t *Track) Frames() []int {
	out := make([]int, 0, len(t.Boxes))
	for k := range t.Boxes {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Span returns the first and last frame of the track; ok is false for an
// empty track.
func (t *Track) Span() (first, last int, ok bool) {
	frames := t.Frames()
	if len(frames) == 0 {
		return 0, 0, false
	}
	return frames[0], frames[len(frames)-1], true
}

// Center returns the box center in frame k.
func (t *Track) Center(k int) (geom.Vec, bool) {
	b, ok := t.Boxes[k]
	if !ok {
		return geom.Vec{}, false
	}
	return b.CenterVec(), true
}

// Trajectory returns the object's center positions over its sorted frames.
func (t *Track) Trajectory() (frames []int, centers geom.Polyline) {
	frames = t.Frames()
	centers = make(geom.Polyline, len(frames))
	for i, k := range frames {
		centers[i] = t.Boxes[k].CenterVec()
	}
	return frames, centers
}

// Len returns the number of frames the object appears in.
func (t *Track) Len() int { return len(t.Boxes) }

// Clone deep-copies the track.
func (t *Track) Clone() *Track {
	out := NewTrack(t.ID, t.Class)
	for k, b := range t.Boxes {
		out.Boxes[k] = b
	}
	return out
}

// TrackSet is a collection of tracks ordered by ID, the "set of n sensitive
// objects O1..On" of the paper.
type TrackSet struct {
	Tracks []*Track
}

// NewTrackSet returns an empty set.
func NewTrackSet() *TrackSet { return &TrackSet{} }

// Add appends a track.
func (s *TrackSet) Add(t *Track) { s.Tracks = append(s.Tracks, t) }

// Len returns the number of objects.
func (s *TrackSet) Len() int { return len(s.Tracks) }

// ByID returns the track with the given ID, or nil.
func (s *TrackSet) ByID(id int) *Track {
	for _, t := range s.Tracks {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Sort orders the tracks by ID.
func (s *TrackSet) Sort() {
	sort.Slice(s.Tracks, func(i, j int) bool { return s.Tracks[i].ID < s.Tracks[j].ID })
}

// CountSeries returns the per-frame object counts for frames [0, m).
func (s *TrackSet) CountSeries(m int) []int {
	out := make([]int, m)
	for _, t := range s.Tracks {
		for k := range t.Boxes {
			if k >= 0 && k < m {
				out[k]++
			}
		}
	}
	return out
}

// WriteCSV serializes the set in MOT-challenge style:
// frame,id,class,x,y,w,h — one row per (object, frame), sorted.
func (s *TrackSet) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "frame,id,class,x,y,w,h"); err != nil {
		return err
	}
	type row struct {
		frame, id int
		class     string
		b         geom.Rect
	}
	var rows []row
	for _, t := range s.Tracks {
		for k, b := range t.Boxes {
			rows = append(rows, row{k, t.ID, t.Class, b})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].frame != rows[j].frame {
			return rows[i].frame < rows[j].frame
		}
		return rows[i].id < rows[j].id
	})
	for _, r := range rows {
		_, err := fmt.Fprintf(bw, "%d,%d,%s,%d,%d,%d,%d\n",
			r.frame, r.id, r.class, r.b.Min.X, r.b.Min.Y, r.b.Dx(), r.b.Dy())
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a track-set CSV produced by WriteCSV.
func ReadCSV(r io.Reader) (*TrackSet, error) {
	set := NewTrackSet()
	byID := map[int]*Track{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 || text == "" {
			continue // header
		}
		fields := strings.Split(text, ",")
		if len(fields) != 7 {
			return nil, fmt.Errorf("motio: line %d: want 7 fields, got %d", line, len(fields))
		}
		nums := make([]int, 0, 6)
		for i, f := range fields {
			if i == 2 {
				continue
			}
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("motio: line %d field %d: %v", line, i, err)
			}
			nums = append(nums, n)
		}
		frame, id := nums[0], nums[1]
		x, y, w, h := nums[2], nums[3], nums[4], nums[5]
		t, ok := byID[id]
		if !ok {
			t = NewTrack(id, fields[2])
			byID[id] = t
			set.Add(t)
		}
		t.Set(frame, geom.RectAt(x, y, w, h))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	set.Sort()
	return set, nil
}

// SaveCSV writes the set to a file, creating parent directories.
func (s *TrackSet) SaveCSV(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCSV reads a track-set CSV from a file.
func LoadCSV(path string) (*TrackSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}
