//go:build !(linux || darwin || freebsd) || race

package arena

import "errors"

// Slabs stay on the Go heap on platforms without the mapping backend
// and in every race build: the race detector neither checks nor orders
// atomic operations on memory outside the Go heap (it skips such
// addresses), so a mapped slab would quietly weaken every -race run.
var errNoBackend = errors.New("arena: slabs are not mapped in this build")

func mapAnon(int) ([]byte, error) { return nil, errNoBackend }

func unmapAnon([]byte) error { return errNoBackend }
