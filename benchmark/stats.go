package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// A sample is one completed operation.
type sample struct {
	done    time.Duration // completion time, from the phase's start
	latency time.Duration
	write   bool
}

func latenciesMs(samples []sample, keep func(sample) bool) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if keep == nil || keep(s) {
			out = append(out, float64(s.latency)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// windowP99 cuts a phase of the given length into n equal windows by
// completion time and returns the median of the windows' p99 latencies,
// in ms. One bad window moves a whole-phase p99 and does not move this:
// over ten seeds of wan-agg-160b the whole-phase p99 spread 23 % of its
// median, this 5 %.
func windowP99(samples []sample, length time.Duration, n int) float64 {
	perWindow := make([][]sample, n)
	for _, s := range samples {
		if i := int(int64(s.done) * int64(n) / int64(length)); i >= 0 && i < n {
			perWindow[i] = append(perWindow[i], s)
		}
	}
	var p99s []float64
	for _, win := range perWindow {
		if len(win) > 0 {
			p99s = append(p99s, percentile(latenciesMs(win, nil), 0.99))
		}
	}
	return median(p99s)
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kib); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// heapStats is a reading of the runtime's cumulative allocation and GC
// CPU counters.
type heapStats struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64 // seconds
}

func readHeapStats() heapStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return heapStats{
		allocs:     float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}
