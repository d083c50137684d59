package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// TestSpecMatchesTheCode keeps BENCHMARK.json and the metric and workload
// tables in step.
func TestSpecMatchesTheCode(t *testing.T) {
	spec := readSpec(t)
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !slices.Equal(ws, code) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", ws, code)
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEndNames) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", got, endToEndNames)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, layerNames) {
		t.Errorf("per_layer: BENCHMARK.json %v, code %v", got, layerNames)
	}
}

// TestSmokeAllWorkloads runs every workload for one second on a 5k-node
// graph, half of them traced, and requires correct answers and every
// metric the short window can support, in the unit BENCHMARK.json gives.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	units := map[string]string{}
	spec := readSpec(t)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	dir := t.TempDir()
	graph := filepath.Join(dir, "graph.txt")
	if err := writeGraph(graph, 5000); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		traced := i%2 == 0
		sub := filepath.Join(dir, w.name)
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		res, err := run(runConfig{w: w, seed: 1, seconds: time.Second, traced: traced, graph: graph, dir: sub})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		t.Logf("%s (traced %v): %v, %d ops", w.name, traced, time.Since(t0).Round(time.Millisecond), res.Attempted)
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d of %d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		want := layerNames
		if !traced {
			want = endToEndNames
		}
		for _, name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s: metric %s missing", w.name, name)
			}
		}
		for name, m := range res.Metrics {
			if units[name] != m.Unit {
				t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.name, name, m.Unit, units[name])
			}
		}
	}
}
