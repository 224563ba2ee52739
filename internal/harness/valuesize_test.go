package harness

import (
	"strings"
	"testing"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
)

// lblTrace is a hand-made complete proxy+server span tree of one LBL
// access, traced as id: the root, its stage spans tiling it (10, 20, 60
// and 10 ns), and the transport attempt and server spans under rpc.
func lblTrace(id uint64) []trace.SpanRecord {
	t0 := time.Unix(0, 0)
	span := func(spanID, parent uint64, name string, start, d int) trace.SpanRecord {
		return trace.SpanRecord{TraceID: id, SpanID: spanID, ParentID: parent, Name: name,
			Start: t0.Add(time.Duration(start)), Duration: time.Duration(d)}
	}
	return []trace.SpanRecord{
		span(1, 0, "lbl_access", 0, 100),
		span(2, 1, "counter_acquire", 0, 10),
		span(3, 1, "table_build", 10, 20),
		span(4, 1, "rpc", 30, 60),
		span(5, 4, "transport_attempt", 31, 58),
		span(6, 5, "server_handle", 40, 30),
		span(7, 6, "server_decrypt", 45, 5),
		span(8, 1, "label_recover", 90, 10),
	}
}

// TestTraceAudit holds the sweep's trace audit to its verdicts on
// hand-made traces: a complete tree whose stage spans tile its root
// passes, one whose stage spans fall a nanosecond short fails, and a
// proxy-only tree does not count as complete.
func TestTraceAudit(t *testing.T) {
	names := core.LBLStages(nil).Names()
	rootOnly := trace.SpanRecord{TraceID: 2, SpanID: 9, Name: "lbl_access", Duration: 500}
	cases := []struct {
		name    string
		edit    func([]trace.SpanRecord) []trace.SpanRecord
		want    string // a fragment of the note, or of the error when refutes
		refutes bool
	}{
		{"complete tree tiles its root", func(s []trace.SpanRecord) []trace.SpanRecord { return s },
			"the slowest of 1 complete traces (of 2 recorded), 0000000000000001: lbl_access", false},
		{"stage span a nanosecond short", func(s []trace.SpanRecord) []trace.SpanRecord { s[3].Duration--; return s },
			"stage spans sum to 99 ns, the end-to-end span is 100 ns", true},
		{"no server spans", func(s []trace.SpanRecord) []trace.SpanRecord { return s[:5] },
			"no complete cross-process trace among 2 recorded traces", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			note, err := auditTraces(append(c.edit(lblTrace(1)), rootOnly), names)
			switch {
			case c.refutes && err == nil:
				t.Fatalf("accepted the trace, want it refuted with %q", c.want)
			case c.refutes && !strings.Contains(err.Error(), c.want):
				t.Fatalf("refuted with %q, want it to say %q", err, c.want)
			case !c.refutes && err != nil:
				t.Fatalf("refuted a complete trace: %v", err)
			case !c.refutes && (!strings.Contains(note, c.want) || !strings.Contains(note, "sum to its root's 100 ns exactly")):
				t.Fatalf("note %q, want it to name the slowest complete trace and its exact tiling", note)
			}
		})
	}
}

// TestLBLTermsFromStageClock holds §6.3.2's breakdown to the stage
// clock on hand-observed histograms of two accesses over a 25 ms link.
// Their stages (acquire, build, rpc, recover, ladder) are 1, 2, 30, 1,
// 0 ms and 3, 2, 32, 1, 0 ms, and the server's share 1 and 3 ms; so
// c = 25, o = 31 − 25 − 2 = 4 and p = 2 + 2 + 1 + 0 + 2 = 7 ms, which
// add up to the 36 ms end-to-end mean. A stage that counts an access
// the end-to-end histogram does not, or an end-to-end sum a nanosecond
// off its stages', must fail the run.
func TestLBLTermsFromStageClock(t *testing.T) {
	ms := time.Millisecond
	laps := [][]time.Duration{{1 * ms, 2 * ms, 30 * ms, 1 * ms, 0}, {3 * ms, 2 * ms, 32 * ms, 1 * ms, 0}}
	server := []time.Duration{1 * ms, 3 * ms}
	cases := []struct {
		name     string
		extra    int           // a stage observed once more than the accesses, or -1
		skew     time.Duration // added to the last access's end-to-end observation
		accesses int
		refutes  string
		c, o, p  time.Duration
	}{
		{"stages tile end to end", -1, 0, 2, "", 25 * ms, 4 * ms, 7 * ms},
		{"stage counts an extra access", 1, 0, 2, "stage table_build has 3 observations, end-to-end has 2", 0, 0, 0},
		{"end to end a nanosecond off", -1, 1, 2, "c + o + p sum to", 0, 0, 0},
		{"no accesses", -1, 0, 0, "recorded no end-to-end access latency", 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			stages := core.LBLStages(reg)
			for a, lap := range laps[:tc.accesses] {
				var total time.Duration
				for i, d := range lap {
					stages.Histogram(i).Observe(d)
					total += d
				}
				if a == tc.accesses-1 {
					total += tc.skew
				}
				stages.Access().Observe(total)
				reg.Histogram("ortoa_lbl_server_access_seconds", "").Observe(server[a])
			}
			if tc.extra >= 0 {
				stages.Histogram(tc.extra).Observe(0)
			}
			c, o, p, err := lblTerms(reg, 25*ms)
			switch {
			case tc.refutes != "" && err == nil:
				t.Fatalf("accepted the stage clock, want it refuted with %q", tc.refutes)
			case tc.refutes != "" && !strings.Contains(err.Error(), tc.refutes):
				t.Fatalf("refuted with %q, want it to say %q", err, tc.refutes)
			case tc.refutes == "" && err != nil:
				t.Fatalf("refuted a stage clock that tiles: %v", err)
			case tc.refutes == "" && (c != tc.c || o != tc.o || p != tc.p):
				t.Fatalf("c, o, p = %v, %v, %v; want %v, %v, %v", c, o, p, tc.c, tc.o, tc.p)
			}
		})
	}
}
