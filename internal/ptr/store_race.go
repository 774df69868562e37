//go:build race

package ptr

import "sync/atomic"

// StoreOwned is an atomic store in race builds: a reader that races an
// owned word unordered (a stale traversal, a Stats snapshot) makes an
// atomic load, and the detector would report it against a plain store
// (see store_plain.go for why that race is benign).
func StoreOwned(w *atomic.Uint64, v uint64) { w.Store(v) }
