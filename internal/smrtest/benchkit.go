package smrtest

import (
	"sync/atomic"
	"testing"

	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// BenchAll runs the primitive-cost microbenchmarks against a factory:
// the per-operation bracket (enter+leave), the retire pipeline, the
// protected read, and a mixed register-swap transaction — sequentially
// and with all cores contending. These are the ablation knives for the
// paper's §3.3 claim that Hyaline's enter/leave CAS costs are small.
func BenchAll(b *testing.B, f Factory) {
	b.Run("EnterLeave", func(b *testing.B) { BenchEnterLeave(b, f) })
	b.Run("EnterLeaveParallel", func(b *testing.B) { BenchEnterLeaveParallel(b, f) })
	b.Run("RetireFree", func(b *testing.B) { BenchRetireFree(b, f) })
	b.Run("Protect", func(b *testing.B) { BenchProtect(b, f) })
	b.Run("RegisterSwapParallel", func(b *testing.B) { BenchRegisterSwapParallel(b, f) })
}

// BenchEnterLeave measures an empty operation bracket on one thread.
func BenchEnterLeave(b *testing.B, f Factory) {
	a := arena.New(1 << 10)
	tr := f(a, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Enter(0)
		tr.Leave(0)
	}
}

// BenchEnterLeaveParallel measures the bracket with every core in its
// own goroutine — the slot/reservation cache-line traffic shows here.
func BenchEnterLeaveParallel(b *testing.B, f Factory) {
	a := arena.New(1 << 10)
	const workers = 64
	tr := f(a, workers)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tid := int(next.Add(1)-1) % workers
		for pb.Next() {
			tr.Enter(tid)
			tr.Leave(tid)
		}
	})
}

// BenchRetireFree measures the full alloc→retire→reclaim pipeline on one
// thread: the amortized per-node reclamation cost of Theorem 3.
func BenchRetireFree(b *testing.B, f Factory) {
	// Size the pool to the iteration count (capacity is virtual until
	// touched): Leaky never frees, so it needs one node per iteration.
	a := arena.New(b.N + 1<<16)
	tr := f(a, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Enter(0)
		idx := tr.Alloc(0)
		tr.Retire(0, idx)
		tr.Leave(0)
	}
	b.StopTimer()
	if fl, ok := tr.(smr.Flusher); ok {
		fl.Flush(0)
	}
	if tr.Name() != "leaky" && a.Live() > 1<<16 {
		b.Fatalf("reclamation fell behind: %d live", a.Live())
	}
}

// BenchProtect measures one protected link dereference: free for
// epoch-style schemes, publish+validate for HP, era sync for HE/IBR and
// the robust Hyaline variants.
func BenchProtect(b *testing.B, f Factory) {
	a := arena.New(1 << 10)
	tr := f(a, 1)
	tr.Enter(0)
	idx := tr.Alloc(0)
	var link atomic.Uint64
	link.Store(ptr.Pack(idx))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := tr.Protect(0, 0, &link); ptr.IsNil(w) {
			b.Fatal("nil protect")
		}
	}
	b.StopTimer()
	tr.Leave(0)
}

// BenchRegisterSwapParallel is the whole-transaction contended case: all
// cores CAS one register, retiring displaced nodes.
func BenchRegisterSwapParallel(b *testing.B, f Factory) {
	a := arena.New(b.N + 1<<16) // Leaky needs one node per iteration
	const workers = 64
	tr := f(a, workers)
	var register atomic.Uint64
	tr.Enter(0)
	register.Store(ptr.Pack(tr.Alloc(0)))
	tr.Leave(0)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tid := int(next.Add(1)-1) % workers
		for pb.Next() {
			tr.Enter(tid)
			idx := tr.Alloc(tid)
			for {
				old := tr.Protect(tid, 0, &register)
				if register.CompareAndSwap(old, ptr.Pack(idx)) {
					tr.Retire(tid, ptr.Idx(old))
					break
				}
			}
			tr.Leave(tid)
		}
	})
}
