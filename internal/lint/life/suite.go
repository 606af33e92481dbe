package life

// The project lifecycle policy: which packages live long enough to leak,
// what acquires, and who takes ownership. This is the single place the
// tables live; cmd/verrolint and the lifecycle fixture tests consume it.

// ProjectConfig returns the lifecycle policy for the verrod service arc.
//
// Notable absences are deliberate: par.NewPool is not a resource (pools
// spawn workers per For call and hold no goroutines or fds between
// calls, so there is nothing to release), and vid.NewWriter/NewReader
// wrap caller-owned io.Writer/Reader values rather than acquiring.
func ProjectConfig() *Config {
	return &Config{
		ServicePkgs: []string{
			"verro/cmd/verrod",
			"verro/internal/server",
			"verro/internal/store",
			"verro/internal/stream",
			"verro/internal/vid",
			"verro/internal/obs",
			// Fixture packages, which "./..." never matches: the driver
			// tests lint the lifedemo pair and the fixture tests their
			// own packages under this policy, so a run pointed at any of
			// them reports what its // want comments and goldens assert.
			"verro/cmd/verrolint/testdata/lifedemo",
			"verro/cmd/verrolint/testdata/lifedemo/allow",
			"verro/internal/lint/life/testdata/goleak",
			"verro/internal/lint/life/testdata/mustclose",
		},
		Resources: map[string]Resource{
			// Files and sockets.
			"os.Open":       {Kind: "file", Result: 0, Release: []string{"Close"}},
			"os.Create":     {Kind: "file", Result: 0, Release: []string{"Close"}},
			"os.OpenFile":   {Kind: "file", Result: 0, Release: []string{"Close"}},
			"os.CreateTemp": {Kind: "temp file", Result: 0, Release: []string{"Close"}},
			"net.Listen":    {Kind: "listener", Result: 0, Release: []string{"Close"}},

			// HTTP responses: the obligation is on the response, released
			// through its Body (resp.Body.Close reaches it by selector
			// chain — baseIdent resolves to resp).
			"net/http.Get":         {Kind: "http response", Result: 0, Release: []string{"Close"}},
			"(net/http.Client).Do": {Kind: "http response", Result: 0, Release: []string{"Close"}},

			// Timers park goroutines until stopped.
			"time.NewTicker": {Kind: "ticker", Result: 0, Release: []string{"Stop"}},
			"time.NewTimer":  {Kind: "timer", Result: 0, Release: []string{"Stop"}},

			// Context cancel funcs: dropping one leaks the context's timer
			// and keeps the parent's children list growing.
			"context.WithCancel":   {Kind: "cancel func", Result: 1, CallRelease: true},
			"context.WithTimeout":  {Kind: "cancel func", Result: 1, CallRelease: true},
			"context.WithDeadline": {Kind: "cancel func", Result: 1, CallRelease: true},

			// The project's own file-backed handles.
			"verro/internal/vid.OpenFileSource": {Kind: "clip source", Result: 0, Release: []string{"Close"}},
			"verro/internal/vid.CreateFileSink": {Kind: "clip sink", Result: 0, Release: []string{"Close"}},
			"verro/internal/vid.OpenRawStore":   {Kind: "raw store", Result: 0, Release: []string{"Close"}},
			"verro/internal/vid.CreateRawStore": {Kind: "raw store", Result: 0, Release: []string{"Close"}},
		},
		Owners: map[string][]int{
			// Serve closes the listener it is handed when the server shuts
			// down; handing it over discharges the obligation.
			"(net/http.Server).Serve": {0},
			"net/http.Serve":          {0},
		},
	}
}
