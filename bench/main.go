// Command bench is the repository's benchmark: seeded workloads run
// against the probesim library and serving stack, in-process, at the
// machine's default GOMAXPROCS. Run it from the repository root:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// It prints every metric by name and unit, then, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer ledger. An answer
// that fails a correctness gate makes it exit 1. README.md describes the
// workloads and metrics; bench/compare compares two sets of results.
//
// Each workload runs in fresh child processes of this binary, so memory,
// GC state and goroutines never carry over: four set-up-only children, then
// one child that sets up, runs the op stream and checks the answers.
// setup_s is the median of the five set-ups.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"probesim/internal/gen"
)

const (
	// buildDir holds everything a run writes, relative to the checkout.
	buildDir = ".bench_build"
	// setupRepeats is how many fresh set-ups setup_s is the median of.
	setupRepeats = 5
	// childTimeout bounds one child process.
	childTimeout = 170 * time.Second
	// graphNodes is the size of the preferential-attachment benchmark
	// graph: 100k nodes, 800k edges.
	graphNodes = 100000
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "all", "paper-topk, serve-hot, serve-churn, routed-churn, or all")
		seed    = flag.Uint64("seed", 1, "seed of the op streams (7 is held out for confirming claims)")
		seconds = flag.Float64("seconds", 20, "length of the measured window; a warm-up of a fifth of it runs first")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		out     = flag.String("out", "", "also write the result with its environment to this file")
		child   = flag.String("child", "", "internal: run one set-up (setup) or one workload (run)")
		graph   = flag.String("graph", "", "internal: the edge-list file a child loads")
		dir     = flag.String("dir", "", "internal: a child's scratch directory")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var ws []workload
	for _, n := range names {
		w, ok := findWorkload(n)
		if !ok {
			fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	c := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		graph:   *graph,
		dir:     *dir,
	}
	if *child != "" {
		c.w = ws[0]
		if err := runChild(*child, c); err != nil {
			fatalf("%s: %v", c.w.name, err)
		}
		return
	}

	total := &result{Correct: true, Metrics: map[string]metric{}}
	var runs []fullResult
	for _, w := range ws {
		c.w = w
		res, err := measure(c)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		names := endToEndNames
		if c.traced {
			names = layerNames
		}
		for _, n := range names {
			mt, ok := res.Metrics[n]
			if !ok {
				fatalf("%s: metric %s missing", w.name, n)
			}
			fmt.Printf("%-14s %-34s %16.6f %s\n", w.name, n, mt.Value, mt.Unit)
		}
		fmt.Printf("%-14s correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		runs = append(runs, fullResult{Workload: w.name, Seed: c.seed, Seconds: c.seconds.Seconds(), Trace: *trace, Result: *res})
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for n, mt := range res.Metrics {
			if len(ws) > 1 {
				n = w.name + "." + n
			}
			total.Metrics[n] = mt
		}
	}
	if *out != "" {
		if err := writeFull(*out, runs); err != nil {
			fatalf("writing %s: %v", *out, err)
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}

// measure runs one workload: it writes the benchmark graph, runs the
// set-up-only children (untraced runs only) and the workload child, and
// reports setup_s as the median of every set-up.
func measure(c runConfig) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c.dir = dir
	c.graph = filepath.Join(dir, "graph.txt")
	if err := writeGraph(c.graph, graphNodes); err != nil {
		return nil, err
	}
	var setups []float64
	if !c.traced {
		for i := 0; i < setupRepeats-1; i++ {
			var s struct {
				Seconds float64 `json:"setup_s"`
			}
			if err := spawn("setup", c, fmt.Sprintf("setup-%d", i), &s); err != nil {
				return nil, err
			}
			setups = append(setups, s.Seconds)
		}
	}
	var res result
	if err := spawn("run", c, "run", &res); err != nil {
		return nil, err
	}
	if !c.traced {
		setups = append(setups, res.Metrics["setup_s"].Value)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	return &res, nil
}

// writeGraph writes the benchmark graph as the edge list every set-up
// loads.
func writeGraph(path string, nodes int) error {
	g := gen.PreferentialAttachment(nodes, 8, 1)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spawn runs this binary as a child in mode and decodes the JSON of its
// last stdout line into v. The child dies with this process.
func spawn(mode string, c runConfig, sub string, v any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(c.dir, sub)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if c.traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--child", mode, "--workload", c.w.name,
		"--seed", strconv.FormatUint(c.seed, 10), "--seconds", strconv.FormatFloat(c.seconds.Seconds(), 'f', -1, 64),
		"--trace", trace, "--graph", c.graph, "--dir", dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return fmt.Errorf("%s child printed no result: %w", mode, err)
	}
	return nil
}

// runChild is the body of a child process: one timed set-up, or one run.
func runChild(mode string, c runConfig) error {
	var v any
	switch mode {
	case "setup":
		t0 := time.Now()
		st, err := c.w.open(c.graph, c.dir, nil)
		if err != nil {
			return err
		}
		secs := time.Since(t0).Seconds()
		if err := st.close(); err != nil {
			return err
		}
		v = map[string]float64{"setup_s": secs}
	case "run":
		res, err := run(c)
		if err != nil {
			return err
		}
		v = res
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fullResult is one workload's result with the settings and machine it
// was measured on: the format of --out and of bench/compare's input.
type fullResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Result   result  `json:"result"`
	Env      env     `json:"env"`
}

type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	DataFS     string `json:"data_fs"`
}

func writeFull(path string, runs []fullResult) error {
	e := env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		DataFS:     fsType(buildDir),
	}
	for i := range runs {
		runs[i].Env = e
	}
	var v any = runs
	if len(runs) == 1 {
		v = runs[0]
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the file system the data directories (and so the
// write-ahead log) sit on; fsync cost depends on it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
