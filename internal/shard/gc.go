package shard

// Snapshot-generation GC visibility. Queries pin the generation they
// grabbed for as long as they run, so superseded snapshots can stay live
// long after publication replaced them, and operators need to see how
// many are live and how much memory they hold. The store keeps the
// ledger as counters: when a generation retires, the live count and the
// bytes it uniquely pins go up, and a runtime cleanup attached to the
// retiree takes them back down once the collector frees it.
//
// The ledger never touches a retiree after retirement: resolving a weak
// pointer during a GC mark phase shades its object, so a ledger that
// resolved its retirees on every publication would keep every uncollected
// retiree alive for another cycle whenever a write landed in a mark, and
// under steady writes they would pile up.
//
// A retiree's bytes are counted against its successor when it retires:
// the shard CSRs the successor re-encoded. The numbers are approximate by
// construction (two retirees sharing a block double-count it, and a
// cleanup runs shortly after the cycle that frees its retiree) but they
// move with reality, which is what an operator watching a leak needs.

import (
	"runtime"
	"sync/atomic"
)

// gcTracker is the store's retired-generation ledger.
type gcTracker struct {
	total atomic.Int64 // generations ever retired (monotonic)
	live  atomic.Int64 // retired generations not yet collected
	bytes atomic.Int64 // bytes the live retirees uniquely pinned when they retired
}

// track records that prev was superseded by next.
func (t *gcTracker) track(prev, next *StoreSnapshot) {
	b := prev.retainedBytes(next)
	t.total.Add(1)
	t.live.Add(1)
	t.bytes.Add(b)
	runtime.AddCleanup(prev, func(b int64) {
		t.live.Add(-1)
		t.bytes.Add(-b)
	}, b)
}

// GCStats reports the retired-generation picture at one scrape.
type GCStats struct {
	// RetiredTotal counts generations ever superseded by a publication.
	RetiredTotal int64
	// RetiredLive counts superseded generations still reachable (pinned
	// by in-flight queries, or not yet collected).
	RetiredLive int
	// RetiredBytes approximates the memory the live retirees uniquely
	// pin: for each, the shard CSRs its successor re-encoded when it
	// retired.
	RetiredBytes int64
	// CurrentBytes is the resident size of the current snapshot.
	CurrentBytes int64
}

// GC reads the retired-generation ledger. It never blocks publication or
// queries: the ledger is atomic counters and snapshots are immutable.
func (st *Store) GC() GCStats {
	s := GCStats{
		RetiredTotal: st.gc.total.Load(),
		RetiredLive:  int(st.gc.live.Load()),
		RetiredBytes: st.gc.bytes.Load(),
	}
	if cur := st.cur.Load(); cur != nil {
		s.CurrentBytes = cur.MemoryBytes()
	}
	return s
}

// retainedBytes approximates the bytes s pins that next does not share
// with it: every shard CSR encoded at a version next has since re-encoded
// (or that next no longer has at all).
func (s *StoreSnapshot) retainedBytes(next *StoreSnapshot) int64 {
	var b int64
	for p := range s.csr {
		if p < len(next.csr) && next.versions[p] == s.versions[p] {
			continue // shared by reference with the successor
		}
		sh := &s.csr[p]
		b += int64(len(sh.InOff)+len(sh.OutOff)) * 4
		b += int64(len(sh.InDst)+len(sh.OutDst)) * 4
	}
	return b
}
