package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"verro"
)

// Layer names used for attribution. A span with no layer is benchmark or
// pipeline glue and counts as unattributed.
const (
	layerDecode   = "vid.decode"
	layerEncode   = "vid.encode"
	layerDetect   = "detect"
	layerKeyframe = "keyframe"
	layerInpaint  = "inpaint"
	layerPhase1   = "core.phase1"
	layerPhase2   = "core.phase2"
	layerStore    = "store"
	layerSubmit   = "server.submit"
	layerStartLag = "server.start_lag"
	layerFinalize = "server.finalize"
	layerOutput   = "server.output"
	unattributed  = ""
	// leafDepth ranks the benchmark's I/O wrapper spans (source reads, sink
	// writes) above every span they run inside.
	leafDepth = 1 << 20
)

// spanRec is one recorded span. Times are nanoseconds from the start of the
// run; Op groups the spans of one operation.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	depth  int
}

// recorder keeps every span of a traced run in memory; they are written out
// once, when the run ends. A nil *recorder records nothing.
type recorder struct {
	t0    time.Time
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(op, parent int, name, layer string, start, end time.Time, depth int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRec{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), depth: depth,
	})
	return id
}

// begin opens a span now and returns its id; end closes it.
func (r *recorder) begin(op, parent int, name, layer string, depth int) int {
	now := time.Now()
	return r.add(op, parent, name, layer, now, now, depth)
}

func (r *recorder) end(id int) { r.spans[id-1].End = time.Since(r.t0).Nanoseconds() }

// addReport nests a finished obs trace under the benchmark span parent
// (depth 1): every span of the program's own span tree becomes a recorded
// span, timed from the trace's start.
func (r *recorder) addReport(op, parent int, start time.Time, rep *verro.TraceReport) {
	if r == nil || rep == nil {
		return
	}
	// The span tree's node type is internal to the library; its JSON form
	// is the documented trace schema.
	data, err := json.Marshal(rep.Span)
	if err != nil {
		return
	}
	var root obsSpan
	if json.Unmarshal(data, &root) != nil {
		return
	}
	var walk func(s *obsSpan, parentID int, parentName string, depth int)
	walk = func(s *obsSpan, parentID int, parentName string, depth int) {
		b := start.Add(time.Duration(s.StartNS))
		id := r.add(op, parentID, s.Name, inprocLayer(s.Name, parentName), b, b.Add(time.Duration(s.DurationNS)), depth)
		for _, c := range s.Children {
			walk(c, id, s.Name, depth+1)
		}
	}
	walk(&root, parent, "", 2)
}

// obsSpan is one node of the trace schema's span tree.
type obsSpan struct {
	Name       string     `json:"name"`
	StartNS    int64      `json:"start_ns"`
	DurationNS int64      `json:"duration_ns"`
	Children   []*obsSpan `json:"children"`
}

// writeFile writes every recorded span as JSON.
func (r *recorder) writeFile(path string) error {
	if r == nil {
		return nil
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// attribute splits op's wall time among layers by exclusive time: at each
// instant the time goes to the deepest open span (leaf I/O wrappers are
// deepest of all; among equals the latest opened). This is the self time of
// each span with overlapping siblings counted once. The "" entry is
// unattributed time; the entries sum to the op span's duration.
func (r *recorder) attribute(op int) map[string]time.Duration {
	var spans []spanRec
	root := -1
	for _, s := range r.spans {
		if s.Op != op {
			continue
		}
		if s.depth == 0 {
			root = len(spans)
		}
		spans = append(spans, s)
	}
	out := map[string]time.Duration{}
	if root < 0 {
		return out
	}
	lo, hi := spans[root].Start, spans[root].End
	var cuts []int64
	for _, s := range spans {
		for _, t := range []int64{s.Start, s.End} {
			if t >= lo && t <= hi {
				cuts = append(cuts, t)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		var best *spanRec
		for j := range spans {
			s := &spans[j]
			if s.Start > a || s.End < b {
				continue
			}
			if best == nil || s.depth > best.depth ||
				(s.depth == best.depth && (s.Start > best.Start || (s.Start == best.Start && s.ID > best.ID))) {
				best = s
			}
		}
		out[best.Layer] += time.Duration(b - a)
	}
	return out
}

// inprocLayer maps the obs span names of the library's pipeline to layers.
// The analysis pass computes the key-frame histograms (and the background
// samples and pan offsets the inpainter consumes); its decode time is carved
// out by the source wrapper spans nested inside it.
func inprocLayer(name, parent string) string {
	switch {
	case name == "analysis" || name == "keyframes" || parent == "analysis":
		return layerKeyframe
	case name == "inpaint":
		return layerInpaint
	case name == "phase1":
		return layerPhase1
	case name == "phase2" || parent == "phase2" && strings.HasPrefix(name, "window@"):
		return layerPhase2
	case name == detectTraceName || name == "background" || name == "detect" || name == "track":
		return layerDetect
	}
	return unattributed
}
