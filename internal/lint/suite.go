package lint

// ProjectAnalyzers returns the analyzer suite with VERRO's package scoping,
// the configuration `make lint` runs over the whole repository:
//
//   - detrand and maporder run everywhere — determinism is a global
//     invariant.
//   - walltime exempts internal/obs (span timing is its purpose) and
//     internal/par (worker busy gauges). Pipeline packages read stage
//     times from obs spans, so internal/core carries no walltime allows;
//     any other call site would need one, individually visible.
func ProjectAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewDetRand(),
		NewWallTime("verro/internal/obs", "verro/internal/par"),
		NewMapOrder(),
	}
}
