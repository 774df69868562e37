package ds

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

// countingTracker counts the Protect calls that reach it and declares
// smr.PlainLoader according to plain. The scheme underneath is hyaline,
// whose Protect is a load, so skipping the wrapper is safe either way.
type countingTracker struct {
	smr.Tracker
	plain    bool
	protects int
}

func (c *countingTracker) Protect(tid, slot int, addr *atomic.Uint64) ptr.Word {
	c.protects++
	return c.Tracker.Protect(tid, slot, addr)
}

func (c *countingTracker) PlainLoad() bool { return c.plain }

// embedOnly wraps a tracker by embedding the interface and nothing else.
type embedOnly struct{ smr.Tracker }

// derefScript builds the named structure over wrap(hyaline) and drives
// it through a fixed insert / get / delete / range sequence, returning
// the trace of every outcome. The bytes keys include ties on the bytes
// list's 8-byte prefix.
func derefScript(t *testing.T, structure string, bytesFamily bool, wrap func(smr.Tracker) smr.Tracker) []string {
	t.Helper()
	a := arena.New(1 << 12)
	tr := wrap(trackers.MustNew("hyaline", a, trackers.Config{MaxThreads: 2}))
	var trace []string
	logf := func(format string, args ...any) { trace = append(trace, fmt.Sprintf(format, args...)) }
	if bytesFamily {
		a.EnableBlobs(1 << 16)
		m, err := NewBytes(structure, a, tr, 2)
		if err != nil {
			t.Fatal(err)
		}
		keys := [][]byte{[]byte("m"), []byte("a"), []byte("a\x00"), []byte("prefix-8-x"),
			[]byte("prefix-8-y"), []byte("prefix-8"), {}, []byte("a")}
		tr.Enter(0)
		for _, k := range keys {
			logf("ins %q %v", k, m.Insert(0, k, append([]byte("v:"), k...)))
		}
		for _, k := range append(keys, []byte("absent"), []byte("prefix-8-")) {
			v, ok := m.Get(0, k, nil)
			logf("get %q %q %v", k, v, ok)
		}
		for _, k := range keys[2:] {
			logf("del %q %v", k, m.Delete(0, k))
		}
		for _, k := range keys {
			v, ok := m.Get(0, k, nil)
			logf("get %q %q %v", k, v, ok)
		}
		tr.Leave(0)
		return append(trace, fmt.Sprintf("len %d", m.Len()))
	}
	m, err := New(structure, a, tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(lo, hi uint64) {
		if r, ok := m.(Ranger); ok {
			r.Range(0, lo, hi, func(k, v uint64) bool { logf("range %d %d", k, v); return true })
		}
	}
	keys := []uint64{50, 10, 90, 30, 70, 20, 80, 40, 60, 10}
	tr.Enter(0)
	for _, k := range keys {
		logf("ins %d %v", k, m.Insert(0, k, k*3))
	}
	for k := uint64(0); k <= 100; k += 5 {
		v, ok := m.Get(0, k)
		logf("get %d %d %v", k, v, ok)
	}
	scan(15, 85)
	for _, k := range keys[3:] {
		logf("del %d %v", k, m.Delete(0, k))
	}
	scan(0, 1<<40)
	tr.Leave(0)
	return append(trace, fmt.Sprintf("len %d", m.Len()))
}

// TestDerefHandleIsTheOnlyPath: every registered structure dereferences
// through smr.Deref and nowhere else. A tracker that declares PlainLoad
// sees no Protect call at all; the same tracker undeclared sees them
// and produces the identical trace; and a wrapper that merely embeds
// smr.Tracker does not inherit the declaration of what it wraps.
func TestDerefHandleIsTheOnlyPath(t *testing.T) {
	run := func(structure string, bytesFamily bool) {
		var c *countingTracker
		counted := func(plain bool) func(smr.Tracker) smr.Tracker {
			return func(tr smr.Tracker) smr.Tracker {
				c = &countingTracker{Tracker: tr, plain: plain}
				return c
			}
		}
		declared := derefScript(t, structure, bytesFamily, counted(true))
		if c.protects != 0 {
			t.Errorf("%s: %d Protect calls reached a tracker that declares PlainLoad", structure, c.protects)
		}
		undeclared := derefScript(t, structure, bytesFamily, counted(false))
		if c.protects == 0 {
			t.Errorf("%s: no Protect call reached an undeclared tracker", structure)
		}
		if !slices.Equal(declared, undeclared) {
			t.Errorf("%s: traces differ\n declared:   %q\n undeclared: %q", structure, declared, undeclared)
		}
		// The embedding wrapper hides the declaration beneath it.
		wrapped := derefScript(t, structure, bytesFamily, func(tr smr.Tracker) smr.Tracker {
			return embedOnly{counted(true)(tr)}
		})
		if c.protects == 0 {
			t.Errorf("%s: a wrapper embedding smr.Tracker inherited PlainLoad", structure)
		}
		if !slices.Equal(declared, wrapped) {
			t.Errorf("%s: traces differ\n declared: %q\n wrapped:  %q", structure, declared, wrapped)
		}
	}
	for _, structure := range Names() {
		run(structure, false)
	}
	for _, structure := range BytesNames() {
		run(structure, true)
	}
	var tr smr.Tracker = embedOnly{trackers.MustNew("hyaline", arena.New(16), trackers.Config{MaxThreads: 1})}
	if _, ok := tr.(smr.PlainLoader); ok {
		t.Error("embedding smr.Tracker promotes PlainLoad")
	}
}
