package harness

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
	"ortoa/internal/workload"
)

// traceStageSpans are the four proxy-side pipeline stages of one LBL
// access, in execution order (§5.2): counter acquire (step 1.1),
// encryption-table build (1.2–1.4), the single round trip, and
// label/value recovery (3.1–3.2). Each is timed twice by the same run —
// as a span, whose durations must sum to the lbl_access root span, and
// as a lap of LBLProxy.Instrument's stage histograms, whose means must
// sum to the end-to-end mean.
var traceStageSpans = []string{"counter_acquire", "table_build", "rpc", "label_recover"}

// traceRequiredSpans is what a complete cross-process trace of one
// access must contain: the proxy's root and stage spans, the
// transport's attempt span, and the server's handler and decrypt
// spans (the two processes meet at rpc → transport_attempt →
// server_handle).
var traceRequiredSpans = []string{
	"lbl_access", "counter_acquire", "table_build", "rpc", "label_recover",
	"transport_attempt", "server_handle", "server_decrypt",
}

// tracePaperSteps maps span names to the §5.2 steps they time.
var tracePaperSteps = map[string]string{
	"lbl_access":        "end-to-end access (§5.2)",
	"counter_acquire":   "1.1 counter lookup",
	"table_build":       "1.2-1.4 PRF labels + enc table",
	"rpc":               "one round trip (wire)",
	"transport_attempt": "frame send/recv (one attempt)",
	"server_handle":     "server-side frame execution",
	"server_decrypt":    "2.1-2.2 trial decrypt + install",
	"label_recover":     "3.1-3.2 decrypt result",
}

// TraceBreakdown is the measured companion to Fig 3c: instead of
// deriving the LBL latency breakdown from link parameters, it runs one
// instrumented and traced LBL workload over the Oregon link and reads
// the breakdown back twice. From the trace buffer it picks the slowest
// complete trace and reports every span of that one access — proxy
// stages and server decrypt joined by the trace id that crossed the
// simulated WAN in the frame header's fixed-size trace field; from the
// registry it reports the per-stage histograms over all accesses. It
// fails if no trace resolves to a complete cross-process span tree, if
// the proxy stage spans do not sum to the end-to-end root span within
// 1%, if the stage means do not sum to the end-to-end mean within 10%,
// or if the shape auditor saw any frame-length divergence while
// tracing was on.
func TraceBreakdown(opt Options) (*Table, error) {
	t := &Table{
		ID:      "trace",
		Title:   "Measured Fig 3c breakdown: one cross-process trace and the stage histograms of the same run (Oregon link, 160B values)",
		Columns: []string{"span/stage", "source", "paper step", "ms", "p99(ms)", "share"},
	}
	reg := obs.NewRegistry()
	wl := workload.Config{NumKeys: opt.keys(), ValueSize: paperValueSize, WriteFraction: 0.5, Seed: 11}
	res, err := Measure(
		Config{System: SystemLBL, Link: netsim.Oregon, ValueSize: paperValueSize,
			LBLMode: core.LBLPointPermute, Metrics: reg, TraceBuffer: 1 << 15},
		wl, opt.conc(), opt.ops(),
	)
	if err != nil {
		return nil, err
	}

	byTrace := make(map[uint64][]trace.SpanRecord)
	for _, rec := range reg.TraceRecords() {
		byTrace[rec.TraceID] = append(byTrace[rec.TraceID], rec)
	}
	var best []trace.SpanRecord
	var bestRoot trace.SpanRecord
	complete := 0
	for _, spans := range byTrace {
		have := make(map[string]bool, len(spans))
		var root *trace.SpanRecord
		for i := range spans {
			have[spans[i].Name] = true
			if spans[i].ParentID == 0 && spans[i].Name == "lbl_access" {
				root = &spans[i]
			}
		}
		ok := root != nil
		for _, name := range traceRequiredSpans {
			ok = ok && have[name]
		}
		if !ok {
			continue
		}
		complete++
		if best == nil || root.Duration > bestRoot.Duration {
			best, bestRoot = spans, *root
		}
	}
	if best == nil {
		return nil, fmt.Errorf("harness: no complete cross-process trace among %d recorded traces", len(byTrace))
	}

	sort.Slice(best, func(a, b int) bool { return best[a].Start.Before(best[b].Start) })
	for _, sp := range best {
		share := "-"
		if bestRoot.Duration > 0 {
			share = fmt.Sprintf("%.0f%%", 100*float64(sp.Duration)/float64(bestRoot.Duration))
		}
		t.AddRow(sp.Name, sp.Process+" span", tracePaperSteps[sp.Name], fmtMS(sp.Duration), "-", share)
	}

	// The stage spans bracket the same boundaries as the e2e stopwatch,
	// so their sum must reproduce the root span: a larger gap means a
	// stage went untimed (acceptance: within 1%).
	var stageSum int64
	for _, sp := range best {
		if slices.Contains(traceStageSpans, sp.Name) {
			stageSum += int64(sp.Duration)
		}
	}
	dev := 100 * (float64(stageSum) - float64(bestRoot.Duration)) / float64(bestRoot.Duration)
	t.Notes = append(t.Notes,
		fmt.Sprintf("trace %016x: %d spans across proxy+server; stage-span sum %s ms vs end-to-end span %s ms (%+.2f%% deviation, acceptance: within 1%%)",
			bestRoot.TraceID, len(best), fmtMSf(stageSum), fmtMSf(int64(bestRoot.Duration)), dev),
		fmt.Sprintf("%d of %d recorded traces resolved to complete cross-process span trees (incomplete ones were evicted from a ring buffer side)",
			complete, len(byTrace)),
		"span context crossed the simulated WAN in the frame header's fixed-size trace field: identical frame lengths traced or not (see the shape rows of /metrics)")
	if dev > 1 || dev < -1 {
		return nil, fmt.Errorf("harness: stage spans sum to %+.2f%% of the end-to-end span (acceptance: within 1%%)", dev)
	}

	// The same run's stage histograms, over every access rather than
	// one. Registry lookups are get-or-create, so these are the
	// histograms the instrumented proxy observed into; the laps share
	// one stopwatch, so the stage means must add up to the end-to-end
	// mean.
	e2e := reg.Histogram("ortoa_lbl_access_seconds", "")
	if e2e.Count() == 0 {
		return nil, fmt.Errorf("harness: instrumented run recorded no end-to-end access latency")
	}
	var meanSum time.Duration
	for _, name := range traceStageSpans {
		h := reg.Histogram(`ortoa_lbl_stage_seconds{stage="`+name+`"}`, "")
		meanSum += h.Mean()
		t.AddRow(name, fmt.Sprintf("mean of %d", h.Count()), tracePaperSteps[name], fmtMS(h.Mean()),
			fmtMS(h.Quantile(0.99)), fmt.Sprintf("%.0f%%", 100*float64(h.Mean())/float64(e2e.Mean())))
	}
	t.AddRow("lbl_access", fmt.Sprintf("mean of %d", e2e.Count()), tracePaperSteps["lbl_access"], fmtMS(e2e.Mean()),
		fmtMS(e2e.Quantile(0.99)), "100%")
	meanDev := 100 * (float64(meanSum) - float64(e2e.Mean())) / float64(e2e.Mean())
	t.Notes = append(t.Notes,
		fmt.Sprintf("histograms: stage-mean sum %s ms vs end-to-end mean %s ms (%+.1f%% deviation, acceptance: within 10%%); harness-side mean %s ms includes cluster routing above the proxy",
			fmtMS(meanSum), fmtMS(e2e.Mean()), meanDev, fmtMS(res.Latency.Mean)),
		"paper: RTT dominates, compute+comm overhead grows with ℓ")
	if meanDev > 10 || meanDev < -10 {
		return nil, fmt.Errorf("harness: stage means sum to %+.1f%% of the end-to-end mean (acceptance: within 10%%)", meanDev)
	}

	if vp, vs := shapeViolations(reg); vp+vs != 0 {
		return nil, fmt.Errorf("harness: obliviousness shape violations while tracing: proxy=%d server=%d", vp, vs)
	}
	t.Notes = append(t.Notes, "shape auditor: 0 length violations with tracing enabled on every frame")
	return t, nil
}

// shapeViolations reads both processes' obliviousness shape-violation
// counters from reg (get-or-create: zero if never armed).
func shapeViolations(reg *obs.Registry) (proxy, server int64) {
	return reg.Counter(`ortoa_obliviousness_shape_violations_total{proc="proxy"}`, "").Value(),
		reg.Counter(`ortoa_obliviousness_shape_violations_total{proc="server"}`, "").Value()
}

// fmtMSf renders nanoseconds as milliseconds with two decimals.
func fmtMSf(ns int64) string { return fmt.Sprintf("%.2f", float64(ns)/1e6) }
