package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 over 300 samples is the third-largest value,
// not a tail estimate.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, and whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1], n-rank >= minBeyond
}

// maxSlices bounds how many consecutive slices of the window a reported
// percentile or rate is the median of: a stall confined to a few slices
// cannot move it.
const maxSlices = 10

// slicedPercentile splits samples, in the order they were due, into as
// many equal consecutive slices (up to maxSlices) as still leave minBeyond
// samples beyond the p-th percentile in each, and returns the median of
// the slices' percentiles. It reports false when even one slice is too
// short.
func slicedPercentile(samples []float64, p float64) (float64, bool) {
	need := int(math.Round(minBeyond / (1 - p/100)))
	n := len(samples)
	k := max(1, min(maxSlices, n/need))
	vals := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		slice := slices.Clone(samples[i*n/k : (i+1)*n/k])
		sort.Float64s(slice)
		v, ok := percentile(slice, p)
		if !ok {
			return 0, false
		}
		vals = append(vals, v)
	}
	return median(vals), true
}

// median returns the median of values (the mean of the middle two for an
// even count); values is sorted in place.
func median(values []float64) float64 {
	sort.Float64s(values)
	n := len(values)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSample is the process-wide state read at each edge of the measured
// window.
type procSample struct {
	at       time.Duration // offset from epoch
	cpu      time.Duration // user+sys CPU of the process (getrusage)
	gcCPU    float64       // runtime/metrics GC CPU seconds
	totalCPU float64       // runtime/metrics total CPU seconds
	alloc    float64       // runtime/metrics cumulative heap bytes allocated
	steal    float64       // /proc/stat CPU ticks stolen by the hypervisor
	hostCPU  float64       // /proc/stat CPU ticks of every class
	counters map[string]float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// processCPU reads the user+sys CPU time of the process (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenCPU reads the first line of /proc/stat: the CPU time the
// hypervisor ran other guests while this machine's CPUs had work (steal),
// and the time of every class together, in clock ticks.
func stolenCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user and nice.
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func sampleProc(counters map[string]float64) procSample {
	s := procSample{at: now(), cpu: processCPU(), counters: counters}
	s.steal, s.hostCPU = stolenCPU()
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rs[i].Name = name
	}
	metrics.Read(rs)
	value := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			return m.Value.Float64()
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		}
		return 0
	}
	s.gcCPU, s.totalCPU, s.alloc = value(rs[0]), value(rs[1]), value(rs[2])
	return s
}

// residentMB reads the process's resident set (VmRSS).
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}
