// Package limbo is the retire list the four baselines share: Epoch, HP,
// HE and IBR park every retired node on a per-thread limbo list and,
// once the list is long enough, make a reclamation pass over it. They
// differ only in what their readers publish and in the snapshot of
// those reservations a pass takes; the list, the retire push, the pass
// loop, the chained release and the scan trigger live here, once.
//
// A scheme's pass takes one snapshot of every thread's reservations and
// then calls Scan with a keep predicate that consults only the snapshot.
// One snapshot per pass is as safe as re-reading the reservations for
// every node, which is what HE (Ramalhete & Correia, PPoPP 2017) and
// IBR (Wen et al., PPoPP 2018) do too:
//   - every node on the list was retired before the pass began, so it
//     was unlinked before the snapshot;
//   - a reservation that covers such a node was published before the
//     reader's validating re-read, which returned a link to the node,
//     and so before the unlink: the snapshot sees it;
//   - a reservation published after the snapshot began cannot cover a
//     node that was already unreachable, because no reader can reach
//     the node to validate it afterwards.
package limbo

import (
	"hyaline/internal/arena"
	"hyaline/internal/ptr"
	"hyaline/internal/smr"
)

// List is one limbo list per tid. Each tid's list is touched only by the
// goroutine holding the tid, so it needs no synchronization of its own.
type List struct {
	base      smr.Base
	threshold int
	lists     []list
}

type list struct {
	head  ptr.Word // intrusive list via Node.Next
	count int
	// next is the adaptive scan trigger: when pinned garbage keeps a
	// long list alive, rescanning every threshold retires would be
	// quadratic, so the trigger moves with the surviving count.
	next int
	_    [5]uint64 // pad to 64 B
}

// New creates maxThreads empty lists that ask for a pass every
// threshold retires. Retire and Scan account through base's counters
// and free into base's arena.
func New(base smr.Base, maxThreads, threshold int) List {
	l := List{base: base, threshold: threshold, lists: make([]list, maxThreads)}
	for i := range l.lists {
		l.lists[i].next = threshold
	}
	return l
}

// Retire counts the retirement of idx by tid, parks the node on tid's
// list and reports whether a pass is due. The scheme stamps whatever its
// keep predicate needs (a retire epoch or era) before calling Retire.
func (l *List) Retire(tid int, idx ptr.Index) bool {
	l.base.Counters.Retire(tid)
	ls := &l.lists[tid]
	l.base.Arena.Node(idx).Next.Store(ls.head)
	ls.head = ptr.Pack(idx)
	ls.count++
	return ls.count >= ls.next
}

// Scan makes one reclamation pass over tid's list: every node keep
// rejects is released into one arena.Chain and freed with one
// FreeChain; the others stay listed. keep gets the node's clean word
// and the node itself, and must read only the node and the scheme's
// snapshot.
func (l *List) Scan(tid int, keep func(w ptr.Word, n *arena.Node) bool) {
	l.base.Counters.Scan(tid)
	a := l.base.Arena
	ls := &l.lists[tid]
	var keepHead ptr.Word
	keepCount := 0
	var freed arena.Chain
	for w := ls.head; !ptr.IsNil(w); {
		n := a.Deref(w)
		next := n.Next.Load()
		if keep(w, n) {
			n.Next.Store(keepHead)
			keepHead = w
			keepCount++
		} else {
			a.Release(&freed, ptr.Idx(w))
		}
		w = next
	}
	ls.head = keepHead
	ls.count = keepCount
	// Re-arm the adaptive trigger from the surviving count here, not at
	// the Retire call site: a pass reached through Flush must also
	// lower the trigger, or a list that once ballooned behind a stalled
	// reader stops scanning after the flush drains it — no
	// retire-triggered pass would fire again until the list re-grew to
	// the old high-water mark.
	ls.next = keepCount + l.threshold
	if n := freed.Len(); n > 0 {
		a.FreeChain(tid, &freed)
		l.base.Counters.Free(tid, n)
	}
}
