// Package epshttp is the fixture for the HTTP-parameter-validation
// analyzer: privacy parameters parsed out of a request (form values, JSON
// bodies) or re-read from a stored manifest are tainted until the config
// carrying them passes Validate().
package epshttp

import (
	"encoding/json"
	"net/http"
	"strconv"

	"verro/internal/core"
	"verro/internal/ldp"
	"verro/internal/store"
)

// A form-supplied f reaching core unvalidated.
func leakForm(r *http.Request) error {
	f, err := strconv.ParseFloat(r.FormValue("f"), 64)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Phase1.F = f
	_, err = core.Sanitize(nil, nil, cfg) // want "HTTP-supplied privacy parameter reaches core\.Sanitize without passing Validate\(\)"
	return err
}

// Query values are the same ingress as form values.
func leakQuery(r *http.Request) error {
	q := r.URL.Query()
	w, err := strconv.Atoi(q.Get("window"))
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.WindowFrames = w
	_, err = core.SanitizeStream(nil, nil, cfg, nil) // want "HTTP-supplied privacy parameter reaches core\.SanitizeStream without passing Validate\(\)"
	return err
}

// A JSON request body carries the parameters; decoding taints the struct,
// and only the privacy-parameter fields (the FieldFilter) carry the taint
// onward.
func leakBody(r *http.Request) (float64, error) {
	var m store.Manifest
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		return 0, err
	}
	return ldp.Laplace(m.F, nil), nil // want "HTTP-supplied privacy parameter reaches ldp\.Laplace without passing Validate\(\)"
}

// Resume path: a stored manifest holds the client's original parameters.
func leakManifest(s *store.FS) error {
	m, err := s.Load("job-000001")
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Phase1.F = m.F
	_, err = core.Sanitize(nil, nil, cfg) // want "HTTP-supplied privacy parameter reaches core\.Sanitize without passing Validate\(\)"
	return err
}

// Resume path, late budget: the stored ε lands in the config after
// Validate() has run, so the config reaching core is unvetted again.
func leakManifestEpsAfterValidate(s *store.FS) error {
	m, err := s.Load("job-000001")
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.Phase1.Eps = m.Eps
	_, err = core.SanitizeStream(nil, nil, cfg, nil) // want "HTTP-supplied privacy parameter reaches core\.SanitizeStream without passing Validate\(\)"
	return err
}

// Clean: Validate() cleanses the config before it reaches core.
func cleanValidated(r *http.Request) error {
	f, err := strconv.ParseFloat(r.FormValue("f"), 64)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Phase1.F = f
	if err := cfg.Validate(); err != nil {
		return err
	}
	_, err = core.Sanitize(nil, nil, cfg)
	return err
}

// Clean: the ldp conversion helpers validate their inputs and launder the
// taint, so a hand-converted f is as vetted as a validated config.
func cleanConverted(r *http.Request) error {
	eps, err := strconv.ParseFloat(r.FormValue("eps"), 64)
	if err != nil {
		return err
	}
	f, err := ldp.FlipProbability(10, eps)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Phase1.F = f
	_, err = core.Sanitize(nil, nil, cfg)
	return err
}

// Clean: non-privacy fields of a tainted manifest (paths, geometry, IDs)
// carry no taint — the FieldFilter keeps the service's plumbing quiet.
func cleanManifestPlumbing(s *store.FS) (string, error) {
	m, err := s.Load("job-000001")
	if err != nil {
		return "", err
	}
	return m.Input, nil
}
