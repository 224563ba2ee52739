// Command benchmark is the repository's benchmark: it deploys the real
// three tiers of one workload in this process, drives them with a
// seeded, value-verifying load generator, and prints every metric by
// name. See README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"ortoa"
)

// A metric is one reading, printed as "name unit value".
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type readings map[string]metric

func (m readings) set(name, unit string, value float64) { m[name] = metric{Value: value, Unit: unit} }

// A result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   readings `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: one of the names in BENCHMARK.json, or \"all\"")
		seed    = flag.Int64("seed", 1, "seed for keys, values and request streams")
		seconds = flag.Float64("seconds", 20, "length of the measured phases together")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a boundary-traced run")
		out     = flag.String("out", "", "with -workload all: write the result set to this file")
		compare = flag.Bool("compare", false, "compare two result sets: -compare parent.json change.json")
	)
	flag.Parse()
	if err := run(*name, uint64(*seed), *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if name == "all" {
		return runAll(seed, seconds, out)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	length := time.Duration(seconds * float64(time.Second))
	var res result
	var err error
	if trace == 0 {
		res, err = runEndToEnd(w, seed, length)
	} else {
		res, err = runTraced(w, seed, length)
	}
	if err != nil {
		return err
	}
	if err := printResult(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or returned a wrong value", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// printResult prints every metric as "name unit value", sorted, and
// then the result as one JSON object on the last line.
func printResult(res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %v\n", n, res.Metrics[n].Unit, res.Metrics[n].Value)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err // a reading that is not a finite number
	}
	fmt.Println(string(line))
	return nil
}

// Phase lengths as shares of -seconds. The end-to-end run keeps the
// 3 : 20 : 15 proportions the workloads were sized with.
const (
	warmShare   = 3.0 / 38
	closedShare = 20.0 / 38
	openShare   = 15.0 / 38
)

// setupRepeats is how many times a run deploys from scratch; setup_s
// is the median, so one slow page-in or fsync does not set it.
const setupRepeats = 3

func share(length time.Duration, s float64) time.Duration {
	return time.Duration(float64(length) * s)
}

// buildDir is where run.sh builds and where everything a run writes
// goes. It is relative to the working directory, which run.sh makes the
// root of the checkout.
const buildDir = ".bench_build"

// scratchDir makes a directory for one run's WAL files.
func scratchDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "run-")
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(w spec, seed uint64, length time.Duration) (result, error) {
	dir, err := scratchDir()
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	if n := runtime.GOMAXPROCS(0); n < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: run invalid: GOMAXPROCS is %d, the workloads need 2\n", n)
	}
	ms := readings{}

	m := newModel(seed, w.keys, w.valueSize)
	setupStart := time.Now()
	d, err := deploy(w, ortoa.ProtocolLBL, m, nil, dir)
	if err != nil {
		return result{}, err
	}
	defer d.close()
	setups := []float64{time.Since(setupStart).Seconds()}
	ms.set("storage_bytes_per_value_byte", "ratio", float64(d.server.StorageBytes())/float64(w.keys*w.valueSize))

	r := newRunner(w, seed, d, m)
	ph, err := r.phases(length, warmShare, closedShare, openShare)
	if err != nil {
		return result{}, err
	}
	r.audit()
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	d.close()

	// The remaining deployments only time set-up; they come after the
	// RSS reading so that it reflects one deployment under load.
	for i := 1; i < setupRepeats; i++ {
		runtime.GC()
		m := newModel(seed, w.keys, w.valueSize)
		start := time.Now()
		d, err := deploy(w, ortoa.ProtocolLBL, m, nil, dir)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		d.close()
	}

	closedMs := latenciesMs(ph.closed, nil)
	ops := float64(len(ph.closed))
	ms.set("setup_s", "s", median(setups))
	ms.set("access_p50_ms", "ms", percentile(closedMs, 0.5))
	ms.set("access_p99_ms", "ms", windowP99(ph.closed, ph.closedLength, p99Windows))
	ms.set("throughput_ops", "ops/s", ops/ph.closedLength.Seconds())
	ms.set("cpu_ms_per_op", "CPU-ms", ph.load.cpu.Seconds()*1000/(ops+float64(len(ph.open.samples))))
	ms.set("open_p50_ms", "ms", percentile(latenciesMs(ph.open.samples, nil), 0.5))
	ms.set("open_ok_frac", "fraction", ph.open.okFrac)
	ms.set("wire_bytes_per_op", "B", ph.closedLoop.wireBytes/ops)
	ms.set("rss_peak_mib", "MiB", rss)
	return result{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   ms,
	}, nil
}

// p99Windows is the number of windows access_p99_ms is a median over.
const p99Windows = 20

// usage is a reading of the process's and the proxy's cumulative
// counters, or the difference of two readings.
type usage struct {
	cpu       time.Duration
	heap      heapStats
	wireBytes float64 // proxy↔server, both ways
	calls     float64 // proxy→server calls
	walBytes  float64
}

func (r *runner) usage() (usage, error) {
	cpu, err := cpuTime()
	if err != nil {
		return usage{}, err
	}
	sent, recv, calls := r.d.proxy.TrafficStats()
	return usage{
		cpu: cpu, heap: readHeapStats(),
		wireBytes: float64(sent + recv), calls: float64(calls), walBytes: float64(r.d.walSize()),
	}, nil
}

func (u usage) since(v usage) usage {
	return usage{
		cpu: u.cpu - v.cpu,
		heap: heapStats{
			allocs: u.heap.allocs - v.heap.allocs, allocBytes: u.heap.allocBytes - v.heap.allocBytes,
			gcCPU: u.heap.gcCPU - v.heap.gcCPU, totalCPU: u.heap.totalCPU - v.heap.totalCPU,
		},
		wireBytes: u.wireBytes - v.wireBytes, calls: u.calls - v.calls, walBytes: u.walBytes - v.walBytes,
	}
}

// phaseData is what the load phases of one run measured.
type phaseData struct {
	closed       []sample
	closedLength time.Duration
	closedLoop   usage // over the closed loop
	load         usage // over the closed and the open loop together
	open         openResult
}

// phases runs the shape probe, the warm-up, the closed loop and the
// open loop, each for its share of length.
func (r *runner) phases(length time.Duration, warm, closed, open float64) (phaseData, error) {
	var ph phaseData
	if err := r.shapeProbe(); err != nil {
		return ph, err
	}
	r.closedLoop(r.w.sessions, share(length, warm), 1)

	ph.closedLength = share(length, closed)
	before, err := r.usage()
	if err != nil {
		return ph, err
	}
	ph.closed = r.closedLoop(r.w.sessions, ph.closedLength, 2)
	between, err := r.usage()
	if err != nil {
		return ph, err
	}
	if len(ph.closed) == 0 {
		return ph, fmt.Errorf("%s: no operation completed in the closed loop", r.w.name)
	}
	ph.open = r.openLoop(share(length, open), 3)
	after, err := r.usage()
	if err != nil {
		return ph, err
	}
	if len(ph.open.samples) == 0 {
		return ph, fmt.Errorf("%s: no operation completed in the open loop", r.w.name)
	}
	ph.closedLoop, ph.load = between.since(before), after.since(before)
	return ph, nil
}
