package flow

// privleak proves the paper's central plumbing invariant: the raw object
// observations VERRO ingests (ground-truth tracks, detector output, decoded
// benchmark video) never reach a published artifact — encoded video, CSV
// tables, PNG figures, the HTML report, or a binary's stdout — without
// passing Phase-I/II sanitization or one of the reviewed declassifying
// aggregates. The engine walks every function, summarizes parameter-to-sink
// flows, and reports each source-to-sink path at the call site where the
// tainted value is handed to the sink.
//
// The policy tables below are the §2e contract:
//
//   - Sources are the accessors that materialize raw per-object data.
//     Container handles (scene.Generated, exp.Dataset) are themselves
//     declassified — their paths, preset names, and sizes are public — and
//     only their raw-bearing fields inject taint.
//   - Sanitizers are the LDP randomizers and the Phase-I/II entry points;
//     their results are clean and their internals are trusted.
//   - Declassifiers are reviewed aggregations (deviation metrics, attack
//     success rates, population counts) whose outputs the paper itself
//     publishes; their results are clean but their bodies are still checked.
//   - Sinks are everything that leaves the process as a publishable
//     artifact. fmt printing is a sink only under the configured package
//     prefixes (the binaries' stdout is published; library code may log).

// NewPrivLeak builds the raw-data-to-published-output taint analyzer.
// fmtSinkPrefixes lists the import-path prefixes whose fmt printing counts
// as publication (the project suite passes "verro/cmd/").
func NewPrivLeak(fmtSinkPrefixes ...string) *Analyzer {
	cfg := &TaintConfig{
		SourceCalls: set(
			"(verro/internal/detect.Detector).Detect",
			"(verro/internal/detect.BGSubtractor).Detect",
			"(verro/internal/detect.HOGSVM).Detect",
			"verro/internal/detect.NMS",
			"verro/internal/track.Run",
			"(verro/internal/track.Tracker).Tracks",
			"verro/internal/motio.ReadCSV",
			"verro/internal/motio.LoadCSV",
			"verro/internal/vid.ReadFile",
			"verro/internal/vid.Decode",
			// Service-edge sources (§2i): a decoded stream handle yields raw
			// frames, and a staging file re-opened for resume holds raw
			// frames persisted before sanitization completed.
			"verro/internal/vid.OpenFileSource",
			"verro/internal/vid.OpenRawStore",
		),
		SourceFields: set(
			"verro/internal/scene.Generated.Truth",
			"verro/internal/scene.Generated.Video",
			"verro/internal/scene.Generated.CleanBackground",
			"verro/internal/exp.Dataset.Tracks",
			"verro/internal/exp.Dataset.Reduced",
			"verro/internal/core.Phase1Result.Reduced",
			"verro/internal/core.Phase1Result.Optimal",
			// An HTTP request body is raw client payload: verrod accepts
			// whole octet-stream video uploads through it.
			"net/http.Request.Body",
		),
		Sanitizers: set(
			"verro/internal/core.Sanitize",
			"verro/internal/core.SanitizeStream",
			"verro/internal/core.SanitizeStreamFrom",
			"verro/internal/core.SanitizeMultiType",
			"verro/internal/core.SanitizeJoint",
			"verro/internal/core.RunPhase1",
			"verro/internal/core.RunPhase2",
			"verro/internal/core.NaiveRandomResponse",
			"verro/internal/ldp.ClassicRR",
			"verro/internal/ldp.RAPPORFlip",
			"verro/internal/ldp.NoisyCounts",
			"verro/internal/ldp.Laplace",
			"verro/internal/ldp.LaplaceMechanism",
		),
		Declassifiers: set(
			"verro/internal/metrics.TrajectoryDeviation",
			"verro/internal/metrics.IndexedTrajectoryDeviation",
			"verro/internal/metrics.SamplesDeviation",
			"verro/internal/metrics.CountMAE",
			"verro/internal/metrics.CountCorrelation",
			"verro/internal/detect.Evaluate",
			"verro/internal/track.EvaluateTracks",
			"verro/internal/core.DistinctPresent",
			"verro/internal/core.TruthfulPresent",
			"verro/internal/core.PresentInKeyFrames",
			"verro/internal/attack.Reidentify",
			"verro/internal/attack.LinkAcrossCameras",
			"(verro/internal/motio.TrackSet).Len",
			"(verro/internal/vid.Video).Len",
			"verro/internal/exp.LoadDataset",
			// A stream handle's geometry (name, w×h, frame count, fps) is
			// public metadata; the frames behind it stay tainted.
			"(verro/internal/stream.Source).Meta",
			"(verro/internal/vid.FileSource).Meta",
			// Decoding structured JSON parameters out of a request body is a
			// reviewed boundary: the decoder materializes submitted numbers
			// and paths, not frame payloads. A raw video smuggled through a
			// JSON string field would evade this — the documented blind spot
			// of declassifying here (§2i).
			"(encoding/json.Decoder).Decode",
		),
		Sinks: map[string]*Sink{
			"verro/internal/vid.Encode":    {Operands: []int{0}, What: "video encoder vid.Encode"},
			"verro/internal/vid.WriteFile": {Operands: []int{1}, What: "video writer vid.WriteFile"},
			"verro/internal/vid.WriteY4M":  {Operands: []int{1}, What: "Y4M stream vid.WriteY4M"},
			"verro/internal/vid.SaveY4M":   {Operands: []int{1}, What: "Y4M file vid.SaveY4M"},
			"(verro/internal/vid.Video).WriteGIF": {
				Operands: []int{0}, What: "GIF writer (vid.Video).WriteGIF"},
			"(verro/internal/motio.TrackSet).WriteCSV": {
				Operands: []int{0}, What: "track CSV writer (motio.TrackSet).WriteCSV"},
			"(verro/internal/motio.TrackSet).SaveCSV": {
				Operands: []int{0}, What: "track CSV file (motio.TrackSet).SaveCSV"},
			"(verro/internal/motio.SeriesTable).WriteCSV": {
				Operands: []int{0}, What: "series CSV writer (motio.SeriesTable).WriteCSV"},
			"(verro/internal/motio.SeriesTable).SaveCSV": {
				Operands: []int{0}, What: "series CSV file (motio.SeriesTable).SaveCSV"},
			"verro/internal/report.Render": {Operands: []int{1}, What: "HTML report report.Render"},
			"verro/internal/report.Save":   {Operands: []int{1}, What: "HTML report report.Save"},
			"(verro/internal/img.Image).WritePNG": {
				Operands: []int{0}, What: "PNG file (img.Image).WritePNG"},
			"(verro/internal/img.Image).EncodePNG": {
				Operands: []int{0}, What: "PNG encoder (img.Image).EncodePNG"},
			// Service-edge sinks (§2i): everything verrod hands back to a
			// client or persists outside the sanitization pipeline.
			"(net/http.ResponseWriter).Write": {
				Operands: []int{1}, What: "HTTP response body (http.ResponseWriter).Write"},
			"net/http.ServeFile": {
				Operands: []int{2}, What: "HTTP artifact route http.ServeFile"},
			"(encoding/json.Encoder).Encode": {
				Operands: []int{1}, What: "JSON response encoder (json.Encoder).Encode"},
			"(verro/internal/store.Store).Save": {
				Operands: []int{1}, What: "job manifest (store.Store).Save"},
			"(verro/internal/store.FS).Save": {
				Operands: []int{1}, What: "job manifest (store.FS).Save"},
			"(verro/internal/vid.RawStore).Append": {
				Operands: []int{1}, What: "raw staging file (vid.RawStore).Append"},
			"(verro/internal/vid.RawStore).EncodeTo": {
				Operands: []int{0}, What: "staged-frame encode (vid.RawStore).EncodeTo"},
		},
		FmtSinkPrefixes: fmtSinkPrefixes,
		FuncArgResults: set(
			"verro/internal/par.Map",
			"verro/internal/par.MapPool",
		),
		Report: "raw object data reaches %s without passing a sanitizer",
	}
	return NewAnalyzer("privleak",
		"raw detections/tracks/ground truth must be sanitized before any published output", cfg)
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}
