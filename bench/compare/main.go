// Command compare sets two groups of benchmark results side by side: a
// base (the parent commit) and a head (the change). Each argument names a
// result file written by the benchmark's --out flag, or a directory of
// them. Run it from the repository root:
//
//	go -C bench run ./compare -spec ../BENCHMARK.json -base ../base -head ../head
//
// For every workload and end-to-end metric it prints both sides' median
// and quartiles and a verdict:
//
//   - regression: the head's median is worse than the base's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the base's own spread (quartile distance over median)
//     exceeds the bound, so "no worse" cannot be shown, unless every head
//     run beats every base run;
//   - gain: the head wins at least 9 of every 10 seed-matched pairs (ties
//     count for neither) and the medians differ by more than the base's
//     quartile distance;
//   - same: none of the above.
//
// Per-layer metrics are listed with their medians and no verdict. The
// exit status is 1 when any pair regressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one result file: the benchmark's fullResult.
type run struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark's BENCHMARK.json")
	base := flag.String("base", "", "result file or directory of the parent commit")
	head := flag.String("head", "", "result file or directory of the change")
	flag.Parse()
	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "compare: -base and -head are required")
		os.Exit(2)
	}
	var sp spec
	if err := readJSON(*specPath, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(2)
	}
	b, err := load(*base)
	if err == nil {
		var h []run
		h, err = load(*head)
		if err == nil {
			if regressed := report(os.Stdout, sp, b, h); regressed {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "compare: %v\n", err)
	os.Exit(2)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// load reads one result file (an object, or an array of them for a
// --workload all run) or every *.json file in a directory.
func load(path string) ([]run, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var runs []run
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var many []run
		if err := json.Unmarshal(raw, &many); err != nil {
			var one run
			if err := json.Unmarshal(raw, &one); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			many = []run{one}
		}
		runs = append(runs, many...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return runs, nil
}

// side is one metric's runs on one side, by seed.
type side map[uint64]float64

func (s side) values() []float64 {
	out := make([]float64, 0, len(s))
	for _, v := range s {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// quartiles follows Python's statistics.quantiles(n=4) (the exclusive
// method), the definition the benchmark's acceptance uses.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict judges one (workload, metric) pair.
func verdict(m specMetric, base, head side) string {
	bv, hv := base.values(), head.values()
	if len(bv) == 0 || len(hv) == 0 {
		return "missing"
	}
	bq1, bmed, bq3 := quartiles(bv)
	_, hmed, _ := quartiles(hv)
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	worse := (hmed - bmed) / bmed
	if m.Better == "higher" {
		worse = -worse
	}
	// allBetter: every head run beats every base run.
	allBetter := hv[len(hv)-1] < bv[0]
	if m.Better == "higher" {
		allBetter = hv[0] > bv[len(bv)-1]
	}
	pairs, wins := 0, 0
	for seed, b := range base {
		if h, ok := head[seed]; ok {
			pairs++
			if better(h, b) {
				wins++
			}
		}
	}
	switch {
	case worse > m.Bound:
		return "regression"
	case (bq3-bq1)/bmed > m.Bound && !allBetter:
		return "unresolved"
	case pairs > 0 && 10*wins >= 9*pairs && math.Abs(hmed-bmed) > bq3-bq1:
		return "gain"
	}
	return "same"
}

// report prints one row per workload and metric and reports whether any
// pair regressed.
func report(w io.Writer, sp spec, base, head []run) bool {
	collect := func(runs []run) map[string]map[string]side {
		out := map[string]map[string]side{}
		for _, r := range runs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string]side{}
			}
			for name, m := range r.Result.Metrics {
				if out[r.Workload][name] == nil {
					out[r.Workload][name] = side{}
				}
				out[r.Workload][name][r.Seed] = m.Value
			}
		}
		return out
	}
	b, h := collect(base), collect(head)
	var workloads []string
	for wl := range b {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	regressed := false
	fmt.Fprintf(w, "%-14s %-32s %-34s %-34s %8s %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "verdict")
	row := func(wl string, m specMetric, v string) {
		bq1, bmed, bq3 := quartiles(b[wl][m.Name].values())
		hq1, hmed, hq3 := quartiles(h[wl][m.Name].values())
		fmt.Fprintf(w, "%-14s %-32s %-34s %-34s %+7.1f%% %s\n", wl, m.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", bmed, bq1, bq3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", hmed, hq1, hq3),
			100*(hmed-bmed)/bmed, v)
	}
	for _, wl := range workloads {
		for _, m := range sp.EndToEnd {
			if _, ok := b[wl][m.Name]; !ok {
				continue
			}
			v := verdict(m, b[wl][m.Name], h[wl][m.Name])
			regressed = regressed || v == "regression"
			row(wl, m, v)
		}
		for _, m := range sp.PerLayer {
			if _, ok := b[wl][m.Name]; ok {
				row(wl, m, "-")
			}
		}
	}
	if regressed {
		fmt.Fprintln(w, strings.Repeat("-", 20))
		fmt.Fprintln(w, "at least one pair regressed beyond its bound")
	}
	return regressed
}
