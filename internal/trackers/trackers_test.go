package trackers

import (
	"strings"
	"sync/atomic"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

func TestNamesStable(t *testing.T) {
	names := Names()
	want := map[string]bool{
		"leaky": true, "epoch": true, "hp": true, "he": true, "ibr": true,
		"hyaline": true, "hyaline-1": true, "hyaline-s": true, "hyaline-1s": true,
	}
	if len(names) != len(want) {
		t.Fatalf("names %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected scheme %q", n)
		}
	}
}

func TestReclaimingExcludesLeaky(t *testing.T) {
	for _, n := range Reclaiming() {
		if n == "leaky" {
			t.Fatal("Reclaiming must not contain leaky")
		}
	}
	if len(Reclaiming()) != len(Names())-1 {
		t.Fatal("Reclaiming length wrong")
	}
}

func TestNewConstructsEveryScheme(t *testing.T) {
	a := arena.New(256)
	for _, n := range Names() {
		tr, err := New(n, a, Config{MaxThreads: 4})
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if tr.Name() != n {
			t.Fatalf("New(%q).Name() = %q", n, tr.Name())
		}
		// Smoke: one full lifecycle on each.
		tr.Enter(0)
		idx := tr.Alloc(0)
		tr.Retire(0, idx)
		tr.Leave(0)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	a := arena.New(16)
	if _, err := New("bogus", a, Config{MaxThreads: 1}); err == nil ||
		!strings.Contains(err.Error(), "hyaline-1s") {
		t.Fatalf("unknown-scheme error must list the known names, got %v", err)
	}
	for _, name := range Names() {
		if _, err := New(name, a, Config{}); err == nil {
			t.Fatalf("%s: zero MaxThreads accepted", name)
		}
		if _, err := New(name, a, Config{MaxThreads: -3}); err == nil {
			t.Fatalf("%s: negative MaxThreads accepted", name)
		}
		if _, err := New(name, a, Config{MaxThreads: 1, Slots: -8}); err == nil {
			t.Fatalf("%s: negative Slots accepted", name)
		}
	}
}

func TestOddSlotsRoundToPowerOfTwo(t *testing.T) {
	// §3.2's wrap-around counter arithmetic needs k to be a power of two;
	// an odd request must be rounded up, never used verbatim.
	a := arena.New(1 << 10)
	type slotted interface{ Slots() int }
	for requested, want := range map[int]int{3: 4, 5: 8, 7: 8, 9: 16} {
		tr := MustNew("hyaline", a, Config{MaxThreads: 1, Slots: requested})
		s, ok := tr.(slotted)
		if !ok {
			t.Fatal("hyaline tracker must expose Slots()")
		}
		if s.Slots() != want {
			t.Fatalf("Slots %d rounded to %d, want %d", requested, s.Slots(), want)
		}
	}
}

// TestDeallocAccountingAllSchemes pins the Dealloc contract on every
// registered scheme: a never-published node is retired-and-freed at
// once, so Unreclaimed stays zero and the node returns to the arena
// immediately (no limbo list involved).
func TestDeallocAccountingAllSchemes(t *testing.T) {
	const rounds = 100
	for _, name := range Names() {
		a := arena.New(1 << 10)
		tr := MustNew(name, a, Config{MaxThreads: 2})
		tr.Enter(0)
		for i := 0; i < rounds; i++ {
			tr.Dealloc(0, tr.Alloc(0))
		}
		tr.Leave(0)
		st := tr.Stats()
		want := smr.Stats{Allocated: rounds, Retired: rounds, Freed: rounds}
		if st != want {
			t.Fatalf("%s: stats %+v, want %+v", name, st, want)
		}
		if st.Unreclaimed() != 0 {
			t.Fatalf("%s: Unreclaimed = %d after pure dealloc traffic", name, st.Unreclaimed())
		}
		if live := a.Live(); live != 0 {
			t.Fatalf("%s: %d arena nodes still live (Dealloc must free directly)", name, live)
		}
	}
}

// TestRetireAccountingAllSchemes checks the other half of the ledger:
// retired nodes count as unreclaimed until the scheme actually frees
// them, and the tracker's view never disagrees with the arena's.
func TestRetireAccountingAllSchemes(t *testing.T) {
	const rounds = 64
	for _, name := range Names() {
		a := arena.New(1 << 10)
		tr := MustNew(name, a, Config{MaxThreads: 2})
		tr.Enter(0)
		for i := 0; i < rounds; i++ {
			tr.Retire(0, tr.Alloc(0))
		}
		tr.Leave(0)
		st := tr.Stats()
		if st.Allocated != rounds || st.Retired != rounds {
			t.Fatalf("%s: stats %+v after %d retire rounds", name, st, rounds)
		}
		if un := st.Unreclaimed(); un != rounds-st.Freed {
			t.Fatalf("%s: Unreclaimed = %d, want Retired-Freed = %d", name, un, rounds-st.Freed)
		}
		if live := a.Live(); live != st.Unreclaimed() {
			t.Fatalf("%s: arena live %d != unreclaimed %d (ledgers disagree)",
				name, live, st.Unreclaimed())
		}
	}
}

func TestMustNewPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on error")
		}
	}()
	MustNew("bogus", arena.New(16), Config{MaxThreads: 1})
}

func TestMustNewPanicNamesTheScheme(t *testing.T) {
	// The panic must carry the descriptive New error (unknown scheme +
	// the known names), not a bare failure.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustNew must panic on an unknown scheme")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %v (%T) is not an error", r, r)
		}
		if !strings.Contains(err.Error(), "no-such-scheme") ||
			!strings.Contains(err.Error(), "hyaline-1s") {
			t.Fatalf("panic error %q does not name the scheme and the known names", err)
		}
	}()
	MustNew("no-such-scheme", arena.New(16), Config{MaxThreads: 1})
}

func TestMustNewReturnsTracker(t *testing.T) {
	tr := MustNew("epoch", arena.New(64), Config{MaxThreads: 2})
	if tr == nil || tr.Name() != "epoch" {
		t.Fatalf("MustNew returned %v", tr)
	}
}

func TestNameAccessorsReturnCopies(t *testing.T) {
	// The registry-derived slices are cached; handing out the backing
	// array would let one caller corrupt every later caller.
	names := Names()
	names[0] = "clobbered"
	if Names()[0] == "clobbered" {
		t.Fatal("Names exposes its backing array")
	}
	rec := Reclaiming()
	rec[0] = "clobbered"
	if Reclaiming()[0] == "clobbered" {
		t.Fatal("Reclaiming exposes its backing array")
	}
}

func TestConfigPlumbing(t *testing.T) {
	// Scheme-specific knobs must reach the constructed tracker; verify
	// observable effects for a couple of them.
	a := arena.New(1 << 12)
	tr := MustNew("hyaline", a, Config{MaxThreads: 1, Slots: 4, MinBatch: 2})
	type slotted interface{ Slots() int }
	if s, ok := tr.(slotted); !ok || s.Slots() != 4 {
		t.Fatalf("Slots knob not plumbed")
	}
}

// TestPlainLoadDeclaration pins which schemes declare smr.PlainLoader —
// the ones whose dereference the paper prices at a plain load — and
// checks the declaration is true: Protect returns exactly the stored
// word, bits and all. A scheme that publishes per dereference (hp, he,
// ibr, hyaline-s, hyaline-1s) must never appear here, or structures
// would skip its Protect.
func TestPlainLoadDeclaration(t *testing.T) {
	plain := map[string]bool{"leaky": true, "epoch": true, "hyaline": true, "hyaline-1": true}
	a := arena.New(256)
	for _, n := range Names() {
		tr := MustNew(n, a, Config{MaxThreads: 2})
		p, ok := tr.(smr.PlainLoader)
		if declared := ok && p.PlainLoad(); declared != plain[n] {
			t.Errorf("%s: PlainLoad declared = %v, want %v", n, declared, plain[n])
		}
		if !plain[n] {
			continue
		}
		tr.Enter(1)
		node := ptr.Pack(tr.Alloc(1))
		for _, word := range []ptr.Word{
			ptr.Nil, node, ptr.WithMark(node), ptr.WithFlag(node), ptr.WithTag(node),
			ptr.WithFlag(ptr.WithTag(node)),
		} {
			var w atomic.Uint64
			w.Store(word)
			for slot := 0; slot < 3; slot++ {
				if got := tr.Protect(1, slot, &w); got != w.Load() {
					t.Errorf("%s: Protect(slot %d) = %#x, stored %#x", n, slot, got, word)
				}
			}
		}
		tr.Dealloc(1, ptr.Idx(node))
		tr.Leave(1)
	}
}
