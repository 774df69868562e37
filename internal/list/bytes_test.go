package list

import (
	"bytes"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/dstest"
	"hyaline/internal/smr"
	"hyaline/internal/trackers"
)

func bytesFactory(a *arena.Arena, tr smr.Tracker) dstest.BytesMap {
	return NewBytes(a, tr)
}

func TestBytesAllSchemes(t *testing.T) {
	dstest.RunAllBytes(t, bytesFactory, suiteOptions)
}

func TestBytesFreedReads(t *testing.T) {
	dstest.FreedReadsBytes(t, bytesFactory, suiteOptions)
}

func TestBytesSortedOrder(t *testing.T) {
	a := arena.New(1 << 12)
	a.EnableBlobs(1 << 16)
	tr := trackers.MustNew("hyaline", a, trackers.Config{MaxThreads: 1, Slots: 2, MinBatch: 8})
	l := NewBytes(a, tr)
	// Insertion order deliberately scrambled; Keys must come back in
	// lexicographic byte order.
	for _, k := range []string{"mango", "apple", "zebra", "", "kiwi", "apricot"} {
		tr.Enter(0)
		if !l.Insert(0, []byte(k), []byte("v:"+k)) {
			t.Fatalf("Insert(%q) failed", k)
		}
		tr.Leave(0)
	}
	keys := l.Keys()
	want := []string{"", "apple", "apricot", "kiwi", "mango", "zebra"}
	if len(keys) != len(want) {
		t.Fatalf("Keys returned %d entries, want %d", len(keys), len(want))
	}
	for i, k := range keys {
		if !bytes.Equal(k, []byte(want[i])) {
			t.Fatalf("Keys[%d] = %q, want %q", i, k, want[i])
		}
	}
}

// TestBytesEmptyKey pins that nil and []byte{} are one bytes key, and
// never the uint64 key 0: both tie on order word 0 with "\x00", which
// only the bytes compare tells apart.
func TestBytesEmptyKey(t *testing.T) {
	for _, keys := range [][2][]byte{{nil, {}}, {{}, nil}} {
		ins, other := keys[0], keys[1]
		a := arena.New(1 << 8)
		a.EnableBlobs(1 << 13)
		tr := trackers.MustNew("hyaline", a, trackers.Config{MaxThreads: 1})
		l := NewBytes(a, tr)
		tr.Enter(0)
		if !l.Insert(0, []byte("\x00"), []byte("z")) {
			t.Fatal(`Insert("\x00") failed`)
		}
		if _, ok := l.Get(0, other, nil); ok {
			t.Fatalf("Get(%#v) hit before any empty key was inserted", other)
		}
		if !l.Insert(0, ins, []byte("e")) {
			t.Fatalf("Insert(%#v) failed beside \"\\x00\"", ins)
		}
		if l.Insert(0, other, []byte("x")) {
			t.Fatalf("Insert(%#v) after Insert(%#v) succeeded", other, ins)
		}
		if v, ok := l.Get(0, other, nil); !ok || string(v) != "e" {
			t.Fatalf("Get(%#v) = (%q, %v), want \"e\"", other, v, ok)
		}
		if !l.Delete(0, other) || l.Delete(0, ins) {
			t.Fatalf("Delete(%#v) then Delete(%#v): want true, false", other, ins)
		}
		if v, ok := l.Get(0, []byte("\x00"), nil); !ok || string(v) != "z" {
			t.Fatalf(`Get("\x00") = (%q, %v) after the empty key went`, v, ok)
		}
		tr.Leave(0)
		if l.Len() != 1 {
			t.Fatalf("Len = %d, want 1", l.Len())
		}
	}
}

func TestNewBytesRequiresBlobs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBytes on a blob-less arena did not panic")
		}
	}()
	a := arena.New(1 << 8)
	tr := trackers.MustNew("leaky", a, trackers.Config{MaxThreads: 1})
	NewBytes(a, tr)
}

// FuzzKeyPrefixOrder checks the one-way order property that find rests
// on for bytes keys — a strictly smaller 8-byte prefix implies a
// bytewise smaller key, so only a tie needs the blob — and then that
// ties do reach the full compare: both keys go into a list, which must
// hold them in bytes.Compare order and answer for each separately. The seeds are the
// places a padded prefix can go wrong: the empty key, keys shorter than
// the prefix, a key against its own zero-extension, keys that first
// differ beyond byte 8, and the all-ones prefix.
func FuzzKeyPrefixOrder(f *testing.F) {
	seeds := [][]byte{
		{}, []byte("a"), []byte("a\x00"), []byte("ab"), []byte("abc"), []byte("abcd"),
		[]byte("abcde"), []byte("abcdef"), []byte("abcdefg"), []byte("abcdefgh"),
		[]byte("abcdefgh1"), []byte("abcdefgh2"), []byte("abcdefg\x00"), {0, 0, 0, 0, 0, 0, 0, 0},
		bytes.Repeat([]byte{0xFF}, 8), bytes.Repeat([]byte{0xFF}, 9), bytes.Repeat([]byte{0xFF}, 7),
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		pa, pb, cmp := keyPrefix(a), keyPrefix(b), bytes.Compare(a, b)
		if (pa < pb && cmp >= 0) || (pa > pb && cmp <= 0) {
			t.Fatalf("prefix order disagrees: %q→%#x, %q→%#x, Compare=%d", a, pa, b, pb, cmp)
		}
		if cmp == 0 && pa != pb {
			t.Fatalf("equal keys %q with prefixes %#x, %#x", a, pa, pb)
		}

		ar := arena.New(1 << 8)
		ar.EnableBlobs(1 << 13)
		tr := trackers.MustNew("hyaline", ar, trackers.Config{MaxThreads: 1})
		l := NewBytes(ar, tr)
		tr.Enter(0)
		defer tr.Leave(0)
		if !l.Insert(0, a, []byte("A")) {
			t.Fatalf("Insert(%q) into an empty list failed", a)
		}
		if got := l.Insert(0, b, []byte("B")); got != (cmp != 0) {
			t.Fatalf("Insert(%q) after %q = %v", b, a, got)
		}
		keys := l.Keys()
		for i := 1; i < len(keys); i++ {
			if bytes.Compare(keys[i-1], keys[i]) >= 0 {
				t.Fatalf("list order %q: not strictly increasing", keys)
			}
		}
		if v, ok := l.Get(0, a, nil); !ok || string(v) != "A" {
			t.Fatalf("Get(%q) = (%q, %v)", a, v, ok)
		}
		if cmp != 0 {
			if v, ok := l.Get(0, b, nil); !ok || string(v) != "B" {
				t.Fatalf("Get(%q) = (%q, %v)", b, v, ok)
			}
			if !l.Delete(0, a) {
				t.Fatalf("Delete(%q) failed", a)
			}
			if _, ok := l.Get(0, a, nil); ok {
				t.Fatalf("Get(%q) after Delete succeeded", a)
			}
			if v, ok := l.Get(0, b, nil); !ok || string(v) != "B" {
				t.Fatalf("Get(%q) after Delete(%q) = (%q, %v)", b, a, v, ok)
			}
		}
	})
}
