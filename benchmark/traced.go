package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ortoa"
)

// Shares of -seconds in the traced run. It has more to do than the
// end-to-end run in the same time: the load phases again, for the
// readings that need full load; one traced session; the two-round-trip
// baseline. The direct layer readings take a fixed few seconds more.
const (
	tracedWarmShare   = 0.05
	tracedClosedShare = 0.25
	tracedOpenShare   = 0.20
	traceShare        = 0.30
	baselineShare     = 0.10
)

// traceBlocks is how many alternating traced and untraced blocks the
// one-session phase is cut into; alternating keeps drift in the host
// from reading as tracing overhead.
const traceBlocks = 6

// Validity limits (README, "Validity guards").
const (
	maxLateP99Ms  = 5.0
	maxSumErrFrac = 0.02
)

// resultsDir is where span files and result sets go unless -out says
// otherwise: next to the build, outside the source tree.
const resultsDir = buildDir + "/results"

// runTraced measures the per-layer metrics: boundary spans from one
// traced session, counters from the load phases, the baseline protocol
// on the same link, and each layer's exported functions called directly.
func runTraced(w spec, seed uint64, length time.Duration) (result, error) {
	dir, err := scratchDir()
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	ms := readings{}
	valid := true
	guard := func(ok bool, format string, args ...any) {
		if !ok {
			valid = false
			fmt.Fprintf(os.Stderr, "benchmark: run invalid: "+format+"\n", args...)
		}
	}
	guard(runtime.GOMAXPROCS(0) >= 2, "GOMAXPROCS is %d, the workloads need 2", runtime.GOMAXPROCS(0))

	rec := newRecorder()
	m := newModel(seed, w.keys, w.valueSize)
	d, err := deploy(w, ortoa.ProtocolLBL, m, rec, dir)
	if err != nil {
		return result{}, err
	}
	defer d.close()
	r := newRunner(w, seed, d, m)

	ph, err := r.phases(length, tracedWarmShare, tracedClosedShare, tracedOpenShare)
	if err != nil {
		return result{}, err
	}
	ops := float64(len(ph.closed))
	ms.set("core.agg.ops_per_server_call", "count", ratio(ops, ph.closedLoop.calls))
	ms.set("process.allocs_per_op", "count", ph.closedLoop.heap.allocs/ops)
	ms.set("process.alloc_bytes_per_op", "B", ph.closedLoop.heap.allocBytes/ops)
	ms.set("process.gc_cpu_frac", "fraction", ratio(ph.closedLoop.heap.gcCPU, ph.closedLoop.heap.totalCPU))
	ms.set("kvstore.wal_bytes_per_op", "B", ph.closedLoop.walBytes/ops)
	readP50 := percentile(latenciesMs(ph.closed, func(s sample) bool { return !s.write }), 0.5)
	writeP50 := percentile(latenciesMs(ph.closed, func(s sample) bool { return s.write }), 0.5)
	ms.set("client.read_p50_ms", "ms", readP50)
	ms.set("client.write_p50_ms", "ms", writeP50)
	ms.set("client.rw_p50_gap_frac", "fraction", ratio(math.Abs(readP50-writeP50), readP50))
	late := sortedCopy(ph.open.lateMs)
	openMs := latenciesMs(ph.open.samples, nil)
	ms.set("loadgen.late_p99_ms", "ms", percentile(late, 0.99))
	ms.set("loadgen.max_late_ms", "ms", percentile(late, 1))
	ms.set("loadgen.open_p95_ms", "ms", percentile(openMs, 0.95))
	ms.set("loadgen.open_p99_ms", "ms", percentile(openMs, 0.99))
	ms.set("open_miss_frac", "fraction", float64(ph.open.missed)/float64(ph.open.due))
	guard(percentile(late, 0.99) <= maxLateP99Ms, "the generator ran %.2f ms late at p99, limit %.0f ms", percentile(late, 0.99), maxLateP99Ms)

	tr := r.traceLoop(rec, share(length, traceShare))
	if len(tr.calls) == 0 {
		return result{}, fmt.Errorf("%s: no operation completed in the traced session", w.name)
	}
	tr.report(ms)
	guard(ms["trace.sum_err_frac"].Value <= maxSumErrFrac, "self times miss the call time by %.3f of it, limit %.2f", ms["trace.sum_err_frac"].Value, maxSumErrFrac)
	if err := writeJSON(filepath.Join(resultsDir, "trace-"+w.name+".json"), tr.spans); err != nil {
		return result{}, err
	}
	r.audit()
	d.close()

	// The paper's headline: one round trip against the two of the
	// read-then-write baseline, same link, same sessions.
	bm := newModel(seed, w.keys, w.valueSize)
	bd, err := deploy(w, ortoa.ProtocolBaseline2RTT, bm, nil, dir)
	if err != nil {
		return result{}, fmt.Errorf("baseline: %w", err)
	}
	defer bd.close()
	br := newRunner(w, seed, bd, bm)
	base := latenciesMs(br.closedLoop(w.sessions, share(length, baselineShare), 4), nil)
	bd.close()
	if len(base) == 0 {
		return result{}, fmt.Errorf("%s: no operation completed on the baseline", w.name)
	}
	ms.set("core.baseline.wan_p50_ms", "ms", percentile(base, 0.5))
	ms.set("client.lbl_vs_2rtt_p50_ratio", "ratio", percentile(latenciesMs(ph.closed, nil), 0.5)/percentile(base, 0.5))

	if err := measureLayers(ms, w.valueSize, seed, dir); err != nil {
		return result{}, err
	}
	validity := 0.0
	if valid {
		validity = 1
	}
	ms.set("run.valid", "count", validity)
	failed := r.failed.Load() + br.failed.Load()
	return result{
		Correct:   failed == 0,
		Attempted: r.attempted.Load() + br.attempted.Load(),
		Failed:    failed,
		Metrics:   ms,
	}, nil
}

// traceData is what the one-session phase collected.
type traceData struct {
	spans    []span
	self     map[string][]float64 // per span name, self time of each traced access, µs
	calls    []float64            // traced call times, µs
	untraced []float64            // call times in the untraced blocks, µs
	sumErr   []float64            // per traced access, |Σ self − call| ÷ call
	counts   stamps               // totals of the counting fields
}

// traceLoop drives one session for length, recording boundary stamps
// in every other block.
func (r *runner) traceLoop(rec *recorder, length time.Duration) traceData {
	td := traceData{self: map[string][]float64{}}
	src := newSource(r.w, r.seed, 5, 0, 1)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	start := time.Now()
	for {
		elapsed := time.Since(start)
		if elapsed >= length {
			return td
		}
		traced := int(int64(elapsed)*traceBlocks/int64(length))%2 == 0
		write, key := src.next()
		if !traced {
			begin := time.Now()
			if r.do(write, key, 0, 1) {
				td.untraced = append(td.untraced, us(time.Since(begin)))
			}
			continue
		}
		rec.begin()
		callStart := rec.now()
		ok := r.do(write, key, 0, 1)
		callEnd := rec.now()
		st := rec.end()
		if !ok {
			continue
		}
		spans := st.spans(len(td.calls), callStart, callEnd)
		td.spans = append(td.spans, spans...)
		call := callEnd - callStart
		var sum time.Duration
		for name, self := range selfTimes(spans) {
			sum += self
			td.self[name] = append(td.self[name], us(self))
		}
		td.calls = append(td.calls, us(call))
		td.sumErr = append(td.sumErr, math.Abs(float64(sum-call))/float64(call))
		td.counts.pxWrites += st.pxWrites
		td.counts.pxReads += st.pxReads
		td.counts.svWrites += st.svWrites
		td.counts.reqBytes += st.reqBytes
		td.counts.respBytes += st.respBytes
	}
}

// report sets the boundary-trace metrics: medians of self times, exact
// counts per access, and the two checks on the ledger itself.
func (td traceData) report(ms readings) {
	n := float64(len(td.calls))
	ms.set("client.call_us", "us", median(td.calls))
	ms.set("client.hop_us", "us", median(td.self[spanCall]))
	for _, name := range []string{spanPreSend, spanSend, spanLinkReq, spanHandle, spanLinkRsp, spanRecover} {
		ms.set(name+"_us", "us", median(td.self[name]))
	}
	ms.set("transport.proxy_writes_per_op", "count", float64(td.counts.pxWrites)/n)
	ms.set("transport.proxy_reads_per_op", "count", float64(td.counts.pxReads)/n)
	ms.set("transport.server_writes_per_op", "count", float64(td.counts.svWrites)/n)
	ms.set("link.req_bytes_per_op", "B", float64(td.counts.reqBytes)/n)
	ms.set("link.resp_bytes_per_op", "B", float64(td.counts.respBytes)/n)
	ms.set("trace.sum_err_frac", "fraction", median(td.sumErr))
	ms.set("trace.overhead_frac", "fraction", ratio(median(td.calls), median(td.untraced))-1)
	ms.set("trace.ops", "count", n)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
