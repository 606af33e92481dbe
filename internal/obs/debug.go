package obs

import (
	_ "expvar" // registers /debug/vars (cmdline, memstats) on the default mux
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"sync"
	"time"
)

var debugOnce sync.Once

// NewServer returns an http.Server hardened for long-lived listeners: a
// ReadHeaderTimeout bounds how long a client may dribble request headers
// (the slowloris hold-open), and an IdleTimeout reclaims abandoned
// keep-alive connections. No WriteTimeout is set deliberately — the pprof
// profile endpoints and verrod's SSE event streams hold their responses
// open for minutes by design, and a write deadline would sever them
// mid-stream. Both the -pprof diagnostics endpoint and the verrod job
// server are built on this constructor so the hardening cannot drift.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// ServeDebug starts the opt-in diagnostics endpoint on addr in a background
// goroutine: net/http/pprof profiles plus expvar's process variables
// (cmdline, memstats). A run's worker-pool gauges are in its trace
// (Report.Pool), not here. It backs the CLIs' -pprof flag and is a no-op
// on every call after the first. The listener is opened synchronously so an
// unbindable address surfaces as the returned error instead of vanishing
// inside the serving goroutine; errors from the serving loop itself (after
// a successful bind) are still reported to stderr rather than aborting the
// run — established diagnostics must never take the pipeline down.
func ServeDebug(addr string) error {
	var err error
	debugOnce.Do(func() {
		var ln net.Listener
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			err = fmt.Errorf("obs: debug listener on %s: %w", addr, err)
			return
		}
		srv := NewServer(addr, nil) // nil handler: the default mux carries pprof+expvar
		go func() {
			if serr := srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "obs: debug server on %s: %v\n", addr, serr)
			}
		}()
	})
	return err
}
