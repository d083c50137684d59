package main

import (
	"testing"
	"time"
)

// TestClosedLoopTimesEachCall runs a closed loop whose third op stalls:
// only that op's latency may show the stall, the loop must issue ops one
// after another, and it must stop at its end time.
func TestClosedLoopTimesEachCall(t *testing.T) {
	const stall = 250 * time.Millisecond
	end := now() + 500*time.Millisecond
	ops, recs := runClosed(end, func() op { return op{} }, func(i int, _ op, r *record) {
		time.Sleep(time.Millisecond)
		if i == 2 {
			time.Sleep(stall)
		}
		r.done = now()
	})
	if len(ops) != len(recs) || len(ops) < 5 {
		t.Fatalf("%d ops, %d records in 500ms of 1ms calls", len(ops), len(recs))
	}
	for i := range recs {
		lat := recs[i].done - recs[i].start
		if i == 2 && lat < stall {
			t.Fatalf("the stalled op took %v, less than the stall", lat)
		}
		if i != 2 && lat >= stall {
			t.Fatalf("op %d took %v: the stall leaked into another op", i, lat)
		}
		if i > 0 && recs[i].start < recs[i-1].done {
			t.Fatalf("op %d started before op %d finished", i, i-1)
		}
	}
	if last := recs[len(recs)-1].start; last >= end {
		t.Fatalf("an op started at %v, after the end %v", last, end)
	}
}
