package main

import (
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Fatalf("quartiles = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

// sideOf builds one side of ten seed-matched runs from base values scaled
// by f.
func sideOf(f float64) side {
	s := side{}
	for seed := uint64(1); seed <= 10; seed++ {
		s[seed] = f * (100 + float64(seed%3)) // spread ~2%
	}
	return s
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name       string
		m          specMetric
		base, head side
		want       string
	}{
		{"unchanged", lower, sideOf(1), sideOf(1.01), "same"},
		{"regression beyond the bound", lower, sideOf(1), sideOf(1.2), "regression"},
		{"worse within the bound is no regression", lower, sideOf(1), sideOf(1.05), "same"},
		{"gain", lower, sideOf(1), sideOf(0.8), "gain"},
		{"higher is better", higher, sideOf(1), sideOf(1.3), "gain"},
		{"higher regression", higher, sideOf(1), sideOf(0.8), "regression"},
		{"wide base spread is unresolved", lower, side{1: 50, 2: 100, 3: 150, 4: 200, 5: 100}, sideOf(1), "unresolved"},
		{"wide base beaten by every head run", lower, side{1: 300, 2: 350, 3: 400, 4: 450, 5: 400}, sideOf(1), "gain"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := verdict(tc.m, tc.base, tc.head); got != tc.want {
				t.Fatalf("verdict = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestReportFlagsRegression(t *testing.T) {
	mk := func(workload string, seed uint64, v float64) run {
		var r run
		r.Workload, r.Seed = workload, seed
		r.Result.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"read_p50_ms": {Value: v}}
		return r
	}
	var base, head []run
	for seed := uint64(1); seed <= 5; seed++ {
		base = append(base, mk("serve-hot", seed, 1+float64(seed)/100))
		head = append(head, mk("serve-hot", seed, 2+float64(seed)/100))
	}
	sp := spec{EndToEnd: []specMetric{{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	var out strings.Builder
	if !report(&out, sp, base, head) {
		t.Fatalf("a doubled latency was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "serve-hot") || !strings.Contains(out.String(), "regression") {
		t.Fatalf("report lacks the regressed row:\n%s", out.String())
	}
}
