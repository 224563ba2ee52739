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

// traceStageSteps are the §5.2 steps the four LBL stages time, in the
// order core.LBLStages declares them: counter acquire (step 1.1),
// encryption-table build (1.2–1.4), the single round trip, and
// label/value recovery (3.1–3.2). The names themselves are read from
// the declaration. One clock times each access (DESIGN.md §8): a stage
// boundary is one reading that closes one stage's lap and span and
// opens the next, so the spans must tile the lbl_access root span and
// the stage histograms must add up to the end-to-end one exactly.
var traceStageSteps = []string{
	"1.1 counter lookup",
	"1.2-1.4 PRF labels + enc table",
	"one round trip (wire)",
	"3.1-3.2 decrypt result",
}

// traceOtherSpans are the spans a complete cross-process trace of one
// access holds beside the proxy's stage spans, and the steps they time:
// the proxy's root, the transport's attempt span, and the server's
// handler and decrypt spans (the two processes meet at rpc →
// transport_attempt → server_handle).
var traceOtherSpans = map[string]string{
	"lbl_access":        "end-to-end access (§5.2)",
	"transport_attempt": "frame send/recv (one attempt)",
	"server_handle":     "server-side frame execution",
	"server_decrypt":    "2.1-2.2 trial decrypt + install",
}

// TraceBreakdown is the measured companion to Fig 3c: instead of
// deriving the LBL latency breakdown from link parameters, it runs an
// instrumented and traced LBL workload over the Oregon link and reads
// the breakdown back twice. From the trace buffer it picks the slowest
// complete trace and reports every span of that one access — proxy
// stages and server decrypt joined by the trace id that crossed the
// simulated WAN in the frame header's fixed-size trace field; from the
// registry it reports the per-stage histograms over all accesses. It
// runs the workload once with requests sent whole and once under a
// frame budget that cuts every request into several frames, and holds
// both to the same tree. It fails if no trace resolves to a complete
// cross-process span tree, if the proxy stage spans do not sum to the
// end-to-end root span within 1%, if the stage histograms' sums do not
// add up to the end-to-end histogram's sum exactly or their counts
// differ from its count, or if the shape auditor saw any frame-length
// divergence while tracing was on.
func TraceBreakdown(opt Options) (*Table, error) {
	t := &Table{
		ID:      "trace",
		Title:   "Measured Fig 3c breakdown: one cross-process trace and the stage histograms of the same run (Oregon link, 160B values)",
		Columns: []string{"span/stage", "source", "paper step", "ms", "p99(ms)", "share"},
	}
	if err := traceRun(t, opt, "whole", 0); err != nil {
		return nil, fmt.Errorf("harness: requests sent whole: %w", err)
	}
	cfg := core.LBLConfig{ValueSize: paperValueSize, Mode: core.LBLPointPermute}
	if err := traceRun(t, opt, "cut", cfg.TableBytes()/4); err != nil {
		return nil, fmt.Errorf("harness: requests cut under a frame budget: %w", err)
	}
	t.Notes = append(t.Notes,
		"span context crossed the simulated WAN in the frame header's fixed-size trace field: identical frame lengths traced or not (see the shape rows of /metrics)",
		"paper: RTT dominates, compute+comm overhead grows with ℓ")
	return t, nil
}

// traceRun measures one traced, instrumented workload — requests cut
// under a frame budget of chunk bytes when positive — and appends its
// rows and notes, tagged path, to t.
func traceRun(t *Table, opt Options, path string, chunk int) error {
	reg := obs.NewRegistry()
	wl := workload.Config{NumKeys: opt.keys(), ValueSize: paperValueSize, WriteFraction: 0.5, Seed: 11}
	res, err := Measure(
		Config{System: SystemLBL, Link: netsim.Oregon, ValueSize: paperValueSize, LBLMode: core.LBLPointPermute,
			StreamChunkBytes: chunk, Metrics: reg, TraceBuffer: 1 << 15},
		wl, opt.conc(), opt.ops(),
	)
	if err != nil {
		return err
	}
	// Registry lookups are get-or-create, so this is the family the
	// instrumented proxy observed into.
	stages := core.LBLStages(reg)
	steps := make(map[string]string, len(traceOtherSpans)+len(traceStageSteps))
	for name, step := range traceOtherSpans {
		steps[name] = step
	}
	for i, name := range stages.Names() {
		steps[name] = traceStageSteps[i]
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
		for name := range steps {
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
		return fmt.Errorf("no complete cross-process trace among %d recorded traces", len(byTrace))
	}

	sort.Slice(best, func(a, b int) bool { return best[a].Start.Before(best[b].Start) })
	var stageSum int64
	for _, sp := range best {
		share := "-"
		if bestRoot.Duration > 0 {
			share = fmt.Sprintf("%.0f%%", 100*float64(sp.Duration)/float64(bestRoot.Duration))
		}
		t.AddRow(sp.Name, fmt.Sprintf("%s span (%s)", sp.Process, path), steps[sp.Name], fmtMS(sp.Duration), "-", share)
		if slices.Contains(stages.Names(), sp.Name) {
			stageSum += int64(sp.Duration)
		}
	}
	// The stage spans tile the root span, so their sum must reproduce
	// it: a larger gap means a stage went untimed.
	dev := 100 * (float64(stageSum) - float64(bestRoot.Duration)) / float64(bestRoot.Duration)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s: trace %016x: %d spans across proxy+server; stage-span sum %s ms vs end-to-end span %s ms (%+.2f%% deviation, acceptance: within 1%%)",
			path, bestRoot.TraceID, len(best), fmtMSf(stageSum), fmtMSf(int64(bestRoot.Duration)), dev),
		fmt.Sprintf("%s: %d of %d recorded traces resolved to complete cross-process span trees (incomplete ones were evicted from a ring buffer side)",
			path, complete, len(byTrace)))
	if dev > 1 || dev < -1 {
		return fmt.Errorf("stage spans sum to %+.2f%% of the end-to-end span (acceptance: within 1%%)", dev)
	}

	// The same run's stage histograms, over every access rather than
	// one: one clock fed them, so they agree with the end-to-end
	// histogram exactly, in sum and in count.
	e2e := stages.Access()
	if e2e.Count() == 0 {
		return fmt.Errorf("instrumented run recorded no end-to-end access latency")
	}
	var sum time.Duration
	for i, name := range stages.Names() {
		h := stages.Histogram(i)
		if h.Count() != e2e.Count() {
			return fmt.Errorf("stage %s has %d observations, end-to-end has %d", name, h.Count(), e2e.Count())
		}
		sum += h.Sum()
		t.AddRow(name, fmt.Sprintf("mean of %d (%s)", h.Count(), path), steps[name], fmtMS(h.Mean()),
			fmtMS(h.Quantile(0.99)), fmt.Sprintf("%.0f%%", 100*float64(h.Mean())/float64(e2e.Mean())))
	}
	t.AddRow("lbl_access", fmt.Sprintf("mean of %d (%s)", e2e.Count(), path), steps["lbl_access"], fmtMS(e2e.Mean()),
		fmtMS(e2e.Quantile(0.99)), "100%")
	if sum != e2e.Sum() {
		return fmt.Errorf("stage histograms sum to %v, end-to-end histogram to %v: one clock must make them equal", sum, e2e.Sum())
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s: histograms: stage sums add up to the end-to-end sum exactly (%s ms over %d accesses); harness-side mean %s ms includes cluster routing above the proxy",
			path, fmtMSf(int64(sum)), e2e.Count(), fmtMS(res.Latency.Mean)))

	if vp, vs := shapeViolations(reg); vp+vs != 0 {
		return fmt.Errorf("obliviousness shape violations while tracing: proxy=%d server=%d", vp, vs)
	}
	t.Notes = append(t.Notes, path+": shape auditor: 0 length violations with tracing enabled on every frame")
	return nil
}

// shapeViolations reads both processes' obliviousness shape-violation
// counters from reg (get-or-create: zero if never armed).
func shapeViolations(reg *obs.Registry) (proxy, server int64) {
	return reg.Counter(`ortoa_obliviousness_shape_violations_total{proc="proxy"}`, "").Value(),
		reg.Counter(`ortoa_obliviousness_shape_violations_total{proc="server"}`, "").Value()
}

// fmtMSf renders nanoseconds as milliseconds with two decimals.
func fmtMSf(ns int64) string { return fmt.Sprintf("%.2f", float64(ns)/1e6) }
