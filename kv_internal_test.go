package hyaline

import (
	"testing"
	"unsafe"
)

// TestKVRangeDropsCallback: the chunk state of a scan lives in the
// tid's kvSession, which outlives the call — so the caller's fn must be
// gone from it by the time Range returns, however it returns, or an idle
// session would pin whatever the closure captured.
func TestKVRangeDropsCallback(t *testing.T) {
	kv, err := NewKV("skiplist", "hyaline", KVOptions{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		kv.Insert(k, k)
	}
	check := func(how string) {
		t.Helper()
		l := &kv.shards[0].leaser
		for i := range l.byTid {
			if l.byTid[i].fn != nil {
				t.Fatalf("session %d still holds the caller's fn after a Range that %s", i, how)
			}
		}
		if n := kv.InFlight(); n != 0 {
			t.Fatalf("%d leases in flight after a Range that %s", n, how)
		}
	}
	kv.Range(0, 199, func(_, _ uint64) bool { return true })
	check("ran to the end")
	kv.Range(0, 199, func(k, _ uint64) bool { return k < 100 })
	check("stopped early")
	func() {
		defer func() { recover() }()
		kv.Range(0, 199, func(k, _ uint64) bool {
			if k == 70 {
				panic("callback failed")
			}
			return true
		})
	}()
	check("panicked in fn")

	if size := unsafe.Sizeof(kvSession{}); size%64 != 0 {
		t.Fatalf("kvSession is %d bytes: neighbouring sessions share a cache line", size)
	}
}
