// Package lifedemo plants exactly one finding per lifecycle analyzer:
// a goroutine with no termination path (goleak) and a file handle leaked
// on an early return (mustclose). It is the acceptance fixture for the
// lifecycle suite in the assembled driver.
package lifedemo

import "os"

func spin() {
	for {
	}
}

// Spawn leaks a goroutine: spin's summary diverges.
func Spawn() {
	go spin() // goleak
}

// Read leaks the handle when the size check bails early.
func Read(path string) error {
	f, err := os.Open(path) // mustclose
	if err != nil {
		return err
	}
	if len(path) > 3 {
		return nil
	}
	f.Close()
	return nil
}
