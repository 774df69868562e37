package hyaline_test

import (
	"sync"
	"testing"

	"hyaline"
)

// TestFacadeRoundTrip exercises the public API end to end: every scheme
// against every supported structure, with concurrent workers and final
// accounting.
func TestFacadeRoundTrip(t *testing.T) {
	for _, scheme := range hyaline.Schemes() {
		for _, structure := range hyaline.Structures() {
			if !hyaline.Supports(structure, scheme) {
				continue
			}
			t.Run(scheme+"/"+structure, func(t *testing.T) {
				t.Parallel()
				const workers = 4
				a := hyaline.NewArena(1 << 18)
				tr, err := hyaline.New(scheme, a, hyaline.Options{MaxThreads: workers})
				if err != nil {
					t.Fatal(err)
				}
				m, err := hyaline.NewMap(structure, a, tr, workers)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						ops := 2000
						if structure == "list" {
							ops = 500 // O(n) operations
						}
						for i := 0; i < ops; i++ {
							key := uint64((i*7 + tid) % 500)
							tr.Enter(tid)
							switch i % 3 {
							case 0:
								m.Insert(tid, key, key+1)
							case 1:
								m.Delete(tid, key)
							default:
								if v, ok := m.Get(tid, key); ok && v != key+1 {
									panic("corrupted value through the facade")
								}
							}
							tr.Leave(tid)
						}
					}(w)
				}
				wg.Wait()
				if fl, ok := tr.(hyaline.Flusher); ok {
					for tid := 0; tid < workers; tid++ {
						fl.Flush(tid)
					}
				}
				st := tr.Stats()
				if st.Allocated == 0 {
					t.Fatal("no allocations recorded")
				}
				if m.Len() < 0 {
					t.Fatal("negative length")
				}
			})
		}
	}
}

func TestFacadeErrors(t *testing.T) {
	a := hyaline.NewArena(64)
	if _, err := hyaline.New("no-such-scheme", a, hyaline.Options{MaxThreads: 1}); err == nil {
		t.Fatal("unknown scheme must error")
	}
	if _, err := hyaline.New("hyaline", a, hyaline.Options{}); err == nil {
		t.Fatal("zero MaxThreads must error")
	}
	tr, err := hyaline.New("hyaline", a, hyaline.Options{MaxThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hyaline.NewMap("no-such-structure", a, tr, 1); err == nil {
		t.Fatal("unknown structure must error")
	}
}

func TestSchemeAndStructureLists(t *testing.T) {
	schemes := hyaline.Schemes()
	if len(schemes) != 9 {
		t.Fatalf("expected 9 schemes, got %v", schemes)
	}
	structures := hyaline.Structures()
	if len(structures) != 5 {
		t.Fatalf("expected 5 structures, got %v", structures)
	}
	// The paper's Bonsai exclusions.
	if hyaline.Supports("bonsai", "hp") || hyaline.Supports("bonsai", "he") {
		t.Fatal("bonsai must not support HP/HE")
	}
	if !hyaline.Supports("bonsai", "ibr") || !hyaline.Supports("list", "hp") {
		t.Fatal("supported combinations rejected")
	}
}

// TestTrimmerThroughFacade checks the §3.3 trim surface is reachable
// from the public API.
func TestTrimmerThroughFacade(t *testing.T) {
	a := hyaline.NewArena(1 << 16)
	tr, err := hyaline.New("hyaline", a, hyaline.Options{MaxThreads: 1, Slots: 2, MinBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	trimmer, ok := tr.(hyaline.Trimmer)
	if !ok {
		t.Fatal("hyaline tracker must implement Trimmer")
	}
	tr.Enter(0)
	for i := 0; i < 100; i++ {
		idx := tr.Alloc(0)
		tr.Retire(0, idx)
		trimmer.Trim(0)
	}
	tr.Leave(0)
	if _, ok := any(tr).(hyaline.Flusher); !ok {
		t.Fatal("hyaline tracker must implement Flusher")
	}
}
