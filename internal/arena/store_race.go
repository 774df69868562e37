//go:build race

package arena

import "sync/atomic"

// storeFreed is an atomic store in race builds: a stale reader racing a
// free is an atomic load, and the detector would report it against a
// plain store (see store_plain.go for why that race is benign).
func storeFreed(w *atomic.Uint64, v uint64) { w.Store(v) }
