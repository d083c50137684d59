package shard

import (
	"runtime"
	"testing"
	"time"

	"probesim/internal/gen"
)

// waitRetiredLive polls the ledger until ok accepts its live count:
// runtime cleanups run on their own goroutine shortly after the cycle
// that freed their retiree, so the count settles a moment after
// runtime.GC returns.
func waitRetiredLive(st *Store, ok func(live int) bool) (int, bool) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		live := st.GC().RetiredLive
		if ok(live) {
			return live, true
		}
		if time.Now().After(deadline) {
			return live, false
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetiredLedgerNeverPinsGenerations publishes through forced GC
// cycles and checks that the ledger lets retirees die: after a completed
// cycle, the retirees still live are the ones retired since that cycle
// began (plus one the test holds), not every generation the store ever
// superseded. A ledger that resolved its retirees during publication
// would shade them in every mark phase a write lands in, and they would
// pile up. The held generation must stay counted, bytes included, until
// the test lets go of it.
func TestRetiredLedgerNeverPinsGenerations(t *testing.T) {
	st := NewStore(gen.PreferentialAttachment(2000, 4, 1), 8, 0)
	on := false
	toggle := func() {
		t.Helper()
		if _, err := st.ApplyBatch(0, []EdgeOp{{U: 1, V: 1500, Remove: on}}); err != nil {
			t.Fatal(err)
		}
		on = !on
		st.Publish()
	}
	held := st.Current()
	toggle()
	const slack = 2
	for round := 0; round < 20; round++ {
		begin := st.GC().RetiredTotal
		done := make(chan struct{})
		go func() {
			runtime.GC()
			close(done)
		}()
		for published := false; !published; {
			toggle()
			runtime.Gosched() // at GOMAXPROCS=1, let the cycle progress between writes
			select {
			case <-done:
				published = true
			default:
			}
		}
		since := int(st.GC().RetiredTotal - begin)
		if live, ok := waitRetiredLive(st, func(live int) bool { return live <= since+1+slack }); !ok {
			t.Fatalf("round %d: %d retirees live after a completed cycle, want <= %d retired since it began + 1 held + %d",
				round, live, since, slack)
		}
	}
	runtime.GC()
	if live, ok := waitRetiredLive(st, func(live int) bool { return live == 1 }); !ok {
		t.Fatalf("%d retirees live once writes stopped, want exactly the held one", live)
	}
	if b := st.GC().RetiredBytes; b <= 0 {
		t.Fatalf("held retiree counts %d bytes, want > 0 (its successor re-encoded a shard)", b)
	}
	runtime.KeepAlive(held)
	runtime.GC()
	if live, ok := waitRetiredLive(st, func(live int) bool { return live == 0 }); !ok {
		t.Fatalf("%d retirees live after the held one was released", live)
	}
	if b := st.GC().RetiredBytes; b != 0 {
		t.Fatalf("RetiredBytes = %d with no live retiree, want 0", b)
	}
}
