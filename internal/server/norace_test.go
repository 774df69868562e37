//go:build !race

package server

// raceEnabled reports whether the race detector is compiled in; tests
// asserting exact allocation counts skip that assertion under it (the
// race runtime's sync.Pool drops a share of Puts, so a pooled buffer is
// reallocated now and then).
const raceEnabled = false
