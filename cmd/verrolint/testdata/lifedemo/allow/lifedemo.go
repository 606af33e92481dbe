// Package allow is lifedemo's suppressed twin: every seeded lifecycle
// finding carries a justified //lint:allow, so a run exits clean and the
// stale-allow pass must not flag any directive.
package allow

import "os"

func spin() {
	for {
	}
}

// Spawn leaks a goroutine, with a reasoned suppression.
func Spawn() {
	go spin() //lint:allow goleak demo: intentional leak to exercise the directive
}

// Read leaks the handle on the early return, suppressed.
func Read(path string) error {
	f, err := os.Open(path) //lint:allow mustclose demo: intentional leak to exercise the directive
	if err != nil {
		return err
	}
	if len(path) > 3 {
		return nil
	}
	f.Close()
	return nil
}
