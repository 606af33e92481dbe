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
//   - floateq is scoped to the privacy-math and optimization packages
//     (internal/ldp, internal/core, internal/lp) where an exact float
//     comparison can break the ε bound or a pivot rule.
func ProjectAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewDetRand(),
		NewWallTime("verro/internal/obs", "verro/internal/par"),
		NewMapOrder(),
		NewFloatEq("verro/internal/ldp", "verro/internal/core", "verro/internal/lp"),
	}
}

// ByName returns the named analyzer from the project suite, or nil.
func ByName(name string) *Analyzer {
	for _, a := range ProjectAnalyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
