package harness

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
	"ortoa/internal/workload"
)

// fig3bSizes is the value-size sweep of Figures 3b and 3c.
func fig3bSizes(opt Options) []int {
	if opt.Quick {
		return []int{10, 160, 300}
	}
	return []int{10, 50, 100, 160, 300, 450, 600}
}

var fig3bClaim = Claim{
	Statement: "LBL-ORTOA beats 2RTT at the smallest value and its lead shrinks as ℓ grows, toward the crossover (paper: near 300 B), while TEE-ORTOA's latency stays flat (within 1.25x); " +
		"LBL-ORTOA's communication overhead o grows with ℓ, and §6.3.2's rule c > p + o picks LBL at the smallest value and never where 2RTT measured faster; " +
		"an access's trace resolves to the full proxy+server span tree, its stage spans sum to the end-to-end span exactly, the stage histograms sum exactly to the end-to-end one and c + o + p to its mean, and tracing moves no frame out of its shape class",
	Check: func(t *Table) error { return errors.Join(checkFig3b(t), checkFig3c(t)) },
}

// checkFig3b holds Fig 3b's shape: LBL's lead over 2RTT at the smallest
// value, shrinking with ℓ, and TEE flat.
func checkFig3b(t *Table) error {
	lat, err := t.systems("mean-lat(ms)", SystemLBL, SystemTEE, SystemBaseline)
	if err != nil {
		return err
	}
	lbl, base, last := lat[SystemLBL], lat[SystemBaseline], len(lat[SystemLBL])-1
	if lbl[0] >= base[0] {
		return fmt.Errorf("2RTT (%.1f ms) beats %s (%.1f ms) at the smallest value", base[0], SystemLBL, lbl[0])
	}
	if base[last]-lbl[last] >= base[0]-lbl[0] {
		return fmt.Errorf("%s's lead over 2RTT grows from %.1f to %.1f ms with ℓ", SystemLBL, base[0]-lbl[0], base[last]-lbl[last])
	}
	if s := spread(lat[SystemTEE]); s > 1.25 {
		return fmt.Errorf("%s's latency varies %.2fx across value sizes", SystemTEE, s)
	}
	return nil
}

// checkFig3c holds Fig 3c's shape on the LBL rows: o grows with ℓ, and
// the rule c > p + o picks LBL at the smallest value and never where
// 2RTT measured faster.
func checkFig3c(t *Table) error {
	comm, err := t.series("comm-ovhd(ms)", "system", string(SystemLBL))
	if err != nil {
		return err
	}
	for i := 1; i < len(comm); i++ {
		if comm[i] <= comm[i-1] {
			return fmt.Errorf("communication overhead falls from %.1f to %.1f ms as ℓ grows", comm[i-1], comm[i])
		}
	}
	lat, err := t.systems("mean-lat(ms)", SystemLBL, SystemBaseline)
	if err != nil {
		return err
	}
	i := 0
	for _, row := range t.Rows {
		if row[1] != string(SystemLBL) {
			continue
		}
		wins := row[len(row)-1] == "true"
		if i == 0 && !wins {
			return fmt.Errorf("the rule picks 2RTT at %s B", row[0])
		}
		if wins && lat[SystemLBL][i] > lat[SystemBaseline][i] {
			return fmt.Errorf("the rule picks LBL at %s B, where 2RTT measured %.1f ms against LBL's %.1f", row[0], lat[SystemBaseline][i], lat[SystemLBL][i])
		}
		i++
	}
	return nil
}

// ValueSizeSweep reproduces Figures 3b and 3c from one sweep: LBL-ORTOA,
// TEE-ORTOA and the 2RTT baseline over the Oregon link at each value
// size, with LBL's latency split into §6.3.2's terms on its rows. The
// terms are read off the proxy's own stage clock, the instrumentation a
// deployed proxy serves (DESIGN.md §8): c is the link RTT, o the rpc
// stage less c and the server's share (the mean of
// ortoa_lbl_server_access_seconds), and p the other proxy stages plus
// that share, each a mean over the run's accesses. A negative term is
// reported as it is. Every LBL run is instrumented and traced and
// audits itself (see tracedLBL); at 160 B the workload runs once more
// with every request cut under a frame budget, held to the same audits.
func ValueSizeSweep(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fig3b",
		Title:   "Varying value size, with LBL-ORTOA's latency breakdown from its stage clock (Oregon link)",
		Columns: []string{"value(B)", "system", "mean-lat(ms)", "tput(ops/s)", "rtt(ms)", "comm-ovhd(ms)", "compute(ms)", "LBL wins (c>p+o)"},
	}
	others := []System{SystemTEE, SystemBaseline}
	var cross, deployments int
	for _, size := range fig3bSizes(opt) {
		wl := workload.Config{NumKeys: opt.keys(), ValueSize: size, WriteFraction: 0.5, Seed: 6}
		lbl, err := tracedLBL(opt, wl, 0)
		if err != nil {
			return nil, fmt.Errorf("%s @%dB, requests sent whole: %w", SystemLBL, size, err)
		}
		results, err := measureSystems(others, netsim.Oregon, wl, opt)
		if err != nil {
			return nil, fmt.Errorf("@%dB: %w", size, err)
		}
		deployments += 1 + len(results)
		t.AddRow(fmt.Sprint(size), string(SystemLBL), fmtMS(lbl.Latency.Mean), fmtTput(lbl.Throughput),
			fmtMS(lbl.c), fmtMS(lbl.o), fmtMS(lbl.p), fmt.Sprint(lbl.c > lbl.p+lbl.o))
		for i, sys := range others {
			t.AddRow(fmt.Sprint(size), string(sys), fmtMS(results[i].Latency.Mean), fmtTput(results[i].Throughput), "-", "-", "-", "-")
		}
		if cross == 0 && lbl.Latency.Mean > results[1].Latency.Mean {
			cross = size
		}
		if size != paperValueSize {
			continue
		}
		chunk := core.LBLConfig{ValueSize: size, Mode: core.LBLPointPermute}.TableBytes() / 4
		cut, err := tracedLBL(opt, wl, chunk)
		if err != nil {
			return nil, fmt.Errorf("%s @%dB, requests cut under a frame budget: %w", SystemLBL, size, err)
		}
		deployments++
		t.Notes = append(t.Notes,
			fmt.Sprintf("%d B, requests sent whole: %s", size, lbl.slowest),
			fmt.Sprintf("%d B, requests cut into %d-byte frames: mean-lat %s ms, c %s, o %s, p %s ms; %s",
				size, chunk, fmtMS(cut.Latency.Mean), fmtMS(cut.c), fmtMS(cut.o), fmtMS(cut.p), cut.slowest))
	}
	if cross > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("baseline first outperforms LBL at %dB values (paper: ~300B)", cross))
	} else {
		t.Notes = append(t.Notes, "LBL stayed ahead of the baseline across this sweep (paper crossover: ~300B)")
	}
	t.Notes = append(t.Notes,
		"paper: TEE flat across value sizes; LBL degrades with ℓ, and communication overhead (not compute) dominates that growth",
		"decision rule (§6.3.2): choose LBL-ORTOA when c > p + o",
		"c = link RTT, o = rpc stage − c − server access, p = the other proxy stages + server access; in every LBL run c + o + p equals the proxy's end-to-end mean exactly (checked on the sums); mean-lat is the harness-side mean, which adds cluster routing above the proxy",
		"every LBL run traced: span context crossed the simulated WAN in the frame header's fixed-size trace field, and the shape auditor saw 0 length violations",
		fmt.Sprintf("%d cluster deployments", deployments))
	return t, nil
}

// The LBL proxy's stages by position, in core.LBLStages' order:
// counter acquire (§5.2 step 1.1), table build (1.2–1.4), the round trip,
// label recovery (3.1–3.2), and the recovery ladder.
const (
	stageRPC    = 2 // the round trip: c, o and the server's share
	stageLadder = 4 // the last; climbed only by a round the server rejected, so most traces have no span of it
)

// traceSpans are the spans a complete cross-process trace of one access
// holds beside the proxy's stage spans: the proxy's root, the
// transport's attempt span, and the server's handler and decrypt spans
// (the two processes meet at rpc → transport_attempt → server_handle).
var traceSpans = []string{"lbl_access", "transport_attempt", "server_handle", "server_decrypt"}

// An lblRun is one instrumented and traced LBL run of the sweep.
type lblRun struct {
	Result
	c, o, p time.Duration // §6.3.2's terms, means over the run's accesses
	slowest string        // the slowest complete trace, for a note
}

// tracedLBL measures one instrumented and traced LBL workload over the
// Oregon link — requests cut under a frame budget of chunk bytes when
// positive — audits its traces (auditTraces), reads its breakdown off
// the stage clock (lblTerms), and fails unless the shape auditor saw no
// frame-length divergence while tracing was on.
func tracedLBL(opt Options, wl workload.Config, chunk int) (lblRun, error) {
	reg := obs.NewRegistry()
	res, err := Measure(
		Config{System: SystemLBL, Link: netsim.Oregon, ValueSize: wl.ValueSize, LBLMode: core.LBLPointPermute,
			StreamChunkBytes: chunk, Metrics: reg, TraceBuffer: 1 << 15},
		wl, opt.conc(), opt.ops(),
	)
	if err != nil {
		return lblRun{}, err
	}
	// Registry lookups are get-or-create, so these are the families the
	// instrumented tiers observed into.
	slowest, err := auditTraces(reg.TraceRecords(), core.LBLStages(reg).Names())
	if err != nil {
		return lblRun{}, err
	}
	c, o, p, err := lblTerms(reg, netsim.Oregon.RTT)
	if err != nil {
		return lblRun{}, err
	}
	if vp, vs := shapeViolations(reg); vp+vs != 0 {
		return lblRun{}, fmt.Errorf("obliviousness shape violations while tracing: proxy=%d server=%d", vp, vs)
	}
	return lblRun{Result: res, c: c, o: o, p: p, slowest: slowest}, nil
}

// auditTraces fails unless some trace among recs resolves to a complete
// proxy+server span tree (traceSpans and every stage but the ladder)
// and the slowest such tree's stage spans sum to its root span to the
// nanosecond: one clock times each access (DESIGN.md §8), and a stage
// boundary is one reading that closes one stage's span and opens the
// next. It describes that slowest tree, for a note.
func auditTraces(recs []trace.SpanRecord, names []string) (string, error) {
	required := slices.Concat(traceSpans, names[:stageLadder])
	byTrace := make(map[uint64][]trace.SpanRecord)
	for _, rec := range recs {
		byTrace[rec.TraceID] = append(byTrace[rec.TraceID], rec)
	}
	var best []trace.SpanRecord
	var root trace.SpanRecord
	complete := 0
	for _, spans := range byTrace {
		have := make(map[string]bool, len(spans))
		r := -1
		for i, sp := range spans {
			have[sp.Name] = true
			if sp.ParentID == 0 && sp.Name == "lbl_access" {
				r = i
			}
		}
		ok := r >= 0
		for _, name := range required {
			ok = ok && have[name]
		}
		if !ok {
			continue
		}
		complete++
		if best == nil || spans[r].Duration > root.Duration {
			best, root = spans, spans[r]
		}
	}
	if best == nil {
		return "", fmt.Errorf("no complete cross-process trace among %d recorded traces", len(byTrace))
	}
	sort.Slice(best, func(a, b int) bool { // by start, the root before a stage that opens on its reading
		sa, sb := best[a].Start, best[b].Start
		return sa.Before(sb) || sa.Equal(sb) && best[a].ParentID == 0 && best[b].ParentID != 0
	})
	var stageSum time.Duration
	spans := make([]string, len(best))
	for i, sp := range best {
		spans[i] = fmt.Sprintf("%s %s", sp.Name, fmtMS(sp.Duration))
		if slices.Contains(names, sp.Name) {
			stageSum += sp.Duration
		}
	}
	if stageSum != root.Duration {
		return "", fmt.Errorf("stage spans sum to %d ns, the end-to-end span is %d ns (acceptance: equal)", stageSum, root.Duration)
	}
	return fmt.Sprintf("the slowest of %d complete traces (of %d recorded), %016x: %s; its stage spans sum to its root's %d ns exactly",
		complete, len(byTrace), root.TraceID, strings.Join(spans, ", "), root.Duration), nil
}

// lblTerms reads §6.3.2's terms, each a mean over the accesses, off the
// LBL stage clock in reg over a link of the given RTT. They are taken
// as sums so that they add up exactly: c and the server's share cancel
// between o and p, so c + o + p is the stage histograms' sum, which one
// clock makes the end-to-end histogram's. It fails unless every stage
// histogram counts what the end-to-end one counts and that sum holds.
func lblTerms(reg *obs.Registry, rtt time.Duration) (c, o, p time.Duration, err error) {
	stages := core.LBLStages(reg)
	e2e := stages.Access()
	n := time.Duration(e2e.Count())
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("instrumented run recorded no end-to-end access latency")
	}
	server := reg.Histogram("ortoa_lbl_server_access_seconds", "").Mean() * n
	var rpc time.Duration
	for i, name := range stages.Names() {
		h := stages.Histogram(i)
		if h.Count() != e2e.Count() {
			return 0, 0, 0, fmt.Errorf("stage %s has %d observations, end-to-end has %d", name, h.Count(), e2e.Count())
		}
		if i == stageRPC {
			rpc = h.Sum()
		} else {
			p += h.Sum()
		}
	}
	c = rtt * n
	o = rpc - c - server
	p += server
	if c+o+p != e2e.Sum() {
		return 0, 0, 0, fmt.Errorf("c + o + p sum to %v over %d accesses, the end-to-end histogram to %v: one clock must make them equal", c+o+p, n, e2e.Sum())
	}
	return c / n, o / n, p / n, nil
}

// shapeViolations reads both processes' obliviousness shape-violation
// counters from reg (get-or-create: zero if never armed).
func shapeViolations(reg *obs.Registry) (proxy, server int64) {
	return reg.Counter(`ortoa_obliviousness_shape_violations_total{proc="proxy"}`, "").Value(),
		reg.Counter(`ortoa_obliviousness_shape_violations_total{proc="server"}`, "").Value()
}
