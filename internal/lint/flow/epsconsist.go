package flow

import "verro/internal/lint"

// epsconsist proves that every privacy parameter the LDP layer consumes
// descends from a Phase1Config that has survived Validate(). The privacy
// accounting in the paper (Theorems 1-3) assumes F ∈ (0,1) and a positive
// Laplace ε; feeding an unvalidated or literal-constructed config into the
// ldp primitives silently voids the ε-indistinguishability guarantee
// without ever failing a test.
//
// The check rides the same taint engine as privleak with inverted roles:
// a composite literal of Phase1Config (or the umbrella Config) is the
// source — by definition nothing has validated it yet — and the taint is
// killed when Validate() is called on the value (a Cleanser, applied in
// statement order). A FieldFilter confines propagation to the fields that
// carry privacy semantics (Config.Phase1, Phase1Config.F,
// Phase1Config.LaplaceEps): reading cfg.WindowFrames off an unvalidated
// config is fine. Writing a privacy field re-taints the config — mutation after
// Validate() reopens the hole. Sinks are the ldp primitives' parameter
// slots plus any numeric arithmetic on a tainted value (hand-rolled
// ε-budget math bypasses the range checks entirely).

// NewEpsConsist builds the privacy-parameter-provenance analyzer.
func NewEpsConsist() *lint.Analyzer {
	return NewAnalyzer("epsconsist",
		"privacy parameters must come from a Validate()d Phase1Config, unmodified since",
		epsConsistConfig())
}

// epsConsistConfig is the §2e policy table of the epsconsist analyzer.
func epsConsistConfig() *TaintConfig {
	return &TaintConfig{
		SourceLits: set(
			"verro/internal/core.Phase1Config",
			"verro/internal/core.Config",
		),
		Cleansers: set(
			"(verro/internal/core.Phase1Config).Validate",
			"(verro/internal/core.Config).Validate",
		),
		// The default constructors return vetted in-range parameters; their
		// results are trusted like a validated config. Mutating a privacy
		// field afterwards re-taints (RetaintFields below).
		Sanitizers: set(
			"verro/internal/core.DefaultConfig",
			"verro/internal/core.DefaultPhase1Config",
		),
		FieldFilter: set(
			"verro/internal/core.Config.Phase1",
			"verro/internal/core.Phase1Config.F",
			"verro/internal/core.Phase1Config.LaplaceEps",
		),
		RetaintFields: set(
			"verro/internal/core.Config.Phase1",
			"verro/internal/core.Phase1Config.F",
			"verro/internal/core.Phase1Config.LaplaceEps",
		),
		Sinks: map[string]*Sink{
			"verro/internal/ldp.Epsilon":          {Operands: []int{1}, What: "ldp.Epsilon"},
			"verro/internal/ldp.FlipProbability":  {Operands: []int{1}, What: "ldp.FlipProbability"},
			"verro/internal/ldp.KeepProbability":  {Operands: []int{0}, What: "ldp.KeepProbability"},
			"verro/internal/ldp.ClassicRR":        {Operands: []int{1}, What: "ldp.ClassicRR"},
			"verro/internal/ldp.RAPPORFlip":       {Operands: []int{1}, What: "ldp.RAPPORFlip"},
			"verro/internal/ldp.Laplace":          {Operands: []int{0}, What: "ldp.Laplace"},
			"verro/internal/ldp.LaplaceMechanism": {Operands: []int{1, 2}, What: "ldp.LaplaceMechanism"},
			"verro/internal/ldp.NoisyCounts":      {Operands: []int{1, 2}, What: "ldp.NoisyCounts"},
		},
		ArithSink: true,
		ArithWhat: "privacy-parameter arithmetic",
		Report:    "privacy parameter from a Phase1Config not proven Validate()d feeds %s",
	}
}
