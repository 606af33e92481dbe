package flow

// ProjectAnalyzers returns the dataflow suite configured for this
// repository. fmt printing counts as publication under verro/cmd/ (the
// binaries' stdout is the published experiment record) and under
// verro/internal/server (SSE event payloads leave through fmt.Fprintf on
// the response writer); other library packages may print through the
// tracing layer.
func ProjectAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewPrivLeak("verro/cmd/", "verro/internal/server"),
		NewEpsConsist(),
		NewEpsHTTP(),
	}
}
