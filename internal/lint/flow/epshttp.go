package flow

import "verro/internal/lint"

// epshttp extends the epsconsist discipline to the service edge: privacy
// parameters (f, eps, window) that arrive over HTTP — form values, JSON
// request bodies, or a manifest re-loaded from disk during resume (which
// persists exactly those client-supplied numbers) — are tainted until the
// config carrying them passes Validate(), and must not reach a core
// Phase-I/II entry point or an ldp randomizer slot while tainted.
//
// epsconsist taints Phase1Config/Config composite literals and re-taints
// privacy-field writes, which is the right discipline for in-process code
// but would drown the service path (every literal is suspect). epshttp is
// the complement: only network/persistence ingress is a source, and a
// FieldFilter restricts field-read propagation to the privacy-parameter
// fields themselves, so job IDs, paths, and geometry riding the same
// request or manifest stay clean.
//
// Validated constructors (DefaultConfig, DefaultPhase1Config) and the ldp
// conversion helpers (FlipProbability, Epsilon — both reject out-of-range
// inputs with an error) launder taint; Validate() cleanses the receiver it
// is called on, exactly as in epsconsist.

// NewEpsHTTP builds the HTTP-parameter-validation taint analyzer.
func NewEpsHTTP() *lint.Analyzer {
	cfg := &TaintConfig{
		SourceCalls: set(
			"(net/url.Values).Get",
			"(net/http.Request).FormValue",
			"(net/http.Request).PostFormValue",
			// Resume path: a stored manifest holds the client's original
			// unconverted parameters.
			"(verro/internal/store.FS).Load",
			"(verro/internal/store.FS).List",
		),
		SourceFields: set(
			"net/http.Request.Body",
		),
		Sanitizers: set(
			"verro/internal/core.DefaultConfig",
			"verro/internal/core.DefaultPhase1Config",
			"verro/internal/ldp.FlipProbability",
			"verro/internal/ldp.Epsilon",
		),
		Cleansers: set(
			"(verro/internal/core.Config).Validate",
			"(verro/internal/core.Phase1Config).Validate",
		),
		// Only privacy-parameter fields carry taint out of a tainted
		// request/manifest/config; reading any other field (ID, Input,
		// geometry, checkpoint cursor) yields a clean value.
		FieldFilter: set(
			"verro/internal/core.Config.Phase1",
			"verro/internal/core.Config.WindowFrames",
			"verro/internal/core.Phase1Config.F",
			"verro/internal/core.Phase1Config.LaplaceEps",
			"verro/internal/server.jobRequest.F",
			"verro/internal/server.jobRequest.Eps",
			"verro/internal/server.jobRequest.Window",
			"verro/internal/store.Manifest.F",
			"verro/internal/store.Manifest.Eps",
			"verro/internal/store.Manifest.Window",
		),
		Sinks: map[string]*Sink{
			"verro/internal/core.Sanitize":           {Operands: []int{2}, What: "core.Sanitize"},
			"verro/internal/core.SanitizeStream":     {Operands: []int{2}, What: "core.SanitizeStream"},
			"verro/internal/core.SanitizeStreamFrom": {Operands: []int{2}, What: "core.SanitizeStreamFrom"},
			"verro/internal/core.SanitizeJoint":      {Operands: []int{2, 3}, What: "core.SanitizeJoint"},
			"verro/internal/core.RunPhase1":          {Operands: []int{2}, What: "core.RunPhase1"},
			"verro/internal/ldp.ClassicRR":           {Operands: []int{1}, What: "ldp.ClassicRR"},
			"verro/internal/ldp.RAPPORFlip":          {Operands: []int{1}, What: "ldp.RAPPORFlip"},
			"verro/internal/ldp.Laplace":             {Operands: []int{0}, What: "ldp.Laplace"},
			"verro/internal/ldp.LaplaceMechanism":    {Operands: []int{1, 2}, What: "ldp.LaplaceMechanism"},
		},
		Report: "HTTP-supplied privacy parameter reaches %s without passing Validate()",
	}
	return NewAnalyzer("epshttp",
		"privacy parameters parsed from HTTP or a stored manifest must pass Validate() before reaching core/ldp", cfg)
}
