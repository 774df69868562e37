// Robustness: the paper's Figure 10a in miniature.
//
// One reader enters an operation and stalls forever. Under epoch-based
// reclamation its frozen reservation pins every node retired afterwards:
// garbage grows without bound until memory is exhausted. Under Hyaline-S
// the stalled thread's slot goes era-stale, new batches skip it, and
// garbage stays at the era bound: the nodes born before the slot went
// stale (none here — the map is empty when the reader parks) plus the
// batches in flight. The program prints the bound as a formula.
//
//	go run ./examples/robustness
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hyaline"
	"hyaline/internal/exenv"
)

func run(scheme string) {
	const (
		workers = 4
		stalled = workers // extra tid for the stalled reader
		rounds  = 5
	)
	opsPer := exenv.Pick(200_000, 4_000)
	a := hyaline.NewArena(1 << 22)
	tr, err := hyaline.New(scheme, a, hyaline.Options{
		MaxThreads: workers + 1,
		Freq:       32,
	})
	if err != nil {
		panic(err)
	}
	m, err := hyaline.NewMap("hashmap", a, tr, workers+1)
	if err != nil {
		panic(err)
	}

	// The stalled reader: enters, touches the structure, never leaves.
	tr.Enter(stalled)
	m.Get(stalled, 1)

	fmt.Printf("%-10s", scheme)
	var round atomic.Int64
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				base := uint64(round.Load()) * uint64(opsPer)
				for i := 0; i < opsPer; i++ {
					// Insert a key, then delete that same key: real
					// retire traffic on every pair of operations.
					key := base + uint64((i/2)%10_000)
					tr.Enter(tid)
					if i%2 == 0 {
						m.Insert(tid, key, key)
					} else {
						m.Delete(tid, key)
					}
					tr.Leave(tid)
				}
			}(wkr)
		}
		wg.Wait()
		round.Add(1)
		fmt.Printf("  %9d", tr.Stats().Unreclaimed())
	}
	fmt.Println()
	tr.Leave(stalled)
}

func main() {
	fmt.Println("unreclaimed nodes after each round of 800k ops, one thread stalled:")
	fmt.Println()
	for _, scheme := range []string{"epoch", "hyaline", "hyaline-s", "hyaline-1s", "hp"} {
		run(scheme)
	}
	fmt.Println("\nepoch/hyaline grow without bound; the robust schemes stay flat (Fig. 10a).")
	fmt.Println("hyaline-s bound = nodes born before the stalled slot's access era went stale (0 here)")
	fmt.Println("                + 2 batches per thread in flight")
	fmt.Println("                + AckThreshold × batch, only when > 128 tids force slot sharing")
}
