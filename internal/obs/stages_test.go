package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ortoa/internal/obs/trace"
)

// scriptClock replaces the package clock with one that advances step
// per reading and counts the readings; the returned func restores it.
func scriptClock(t *testing.T, step time.Duration) (reads *int) {
	t.Helper()
	reads = new(int)
	at := time.Unix(1_700_000_000, 0)
	saved := now
	now = func() time.Time {
		*reads++
		at = at.Add(step)
		return at
	}
	t.Cleanup(func() { now = saved })
	return reads
}

func fiveStages(reg *Registry) *Stages {
	return reg.Stages("ortoa_test", "test stages", "acquire", "build", "rpc", "recover", "ladder")
}

// TestInertClockReadsNothing is the contract uninstrumented deployments
// — the repository benchmark's — rely on: with no registry, no tracer
// and no span in the context, a whole access's worth of boundaries
// reads the clock zero times and allocates nothing. Likewise the
// interval helper and a family's Now/Record.
func TestInertClockReadsNothing(t *testing.T) {
	reads := scriptClock(t, time.Millisecond)
	for _, fam := range []*Stages{nil, fiveStages(nil)} {
		access := func() {
			clk, ctx := fam.Start(context.Background(), nil, "access")
			clk.Enter(0)
			clk.Enter(1)
			clk.Enter(2)
			_ = clk.Context(ctx)
			clk.Overlap(1, func() error { return nil }) //nolint:errcheck // returns work's nil
			clk.Enter(3)
			clk.Enter(4)
			clk.Done(1, 0, func() string { t.Error("inert clock asked for a label"); return "" })
			fam.Record(fam.Now(), 0, 0, nil, time.Second, time.Second)
			iv := Time(nil, nil)
			iv.Pause()
			iv.Resume()
			iv.End()
		}
		if allocs := testing.AllocsPerRun(100, access); allocs != 0 {
			t.Errorf("inert clock allocates %.1f per access, want 0", allocs)
		}
	}
	if *reads != 0 {
		t.Fatalf("inert clocks read the clock %d times, want 0", *reads)
	}
	var c *Counter
	var h *Histogram
	if allocs := testing.AllocsPerRun(100, func() { c.Add(1); h.Observe(time.Millisecond) }); allocs != 0 {
		t.Fatalf("nil metrics allocate %.1f per update, want 0", allocs)
	}
}

// TestClockAccounting scripts the clock at 1ms per reading and checks
// every rule of the accounting: a boundary is one reading, the first
// stage begins when the access does, laps of a re-entered stage add up,
// Overlap conserves the total, Done closes the running stage, and the
// end-to-end observation is exactly the stages' sum — every reading from
// Start to Done.
func TestClockAccounting(t *testing.T) {
	reads := scriptClock(t, time.Millisecond)
	reg := NewRegistry()
	fam := fiveStages(reg)

	clk, _ := fam.Start(context.Background(), nil, "access") // t=1: the access begins
	now()                                                    // t=2: before the first Enter, in the first stage
	clk.Enter(0)                                             // t=3: acquire from t=1
	clk.Enter(1)                                             // t=4: acquire 3ms
	clk.Enter(2)                                             // t=5: build 1ms
	if err := clk.Overlap(1, func() error { return errors.New("from work") }); err == nil || err.Error() != "from work" {
		t.Fatalf("Overlap returned %v, want work's error", err)
	} // t=6,7: 1ms moves from rpc to build
	clk.Enter(3) // t=8: rpc 3ms wall − 1ms overlapped = 2ms
	clk.Enter(4) // t=9: recover 1ms
	if before := *reads; before != 9 {
		t.Fatalf("%d clock readings so far, want 9 (one at Start, one per boundary, two per Overlap)", before)
	}
	now()        // t=10: a millisecond on the ladder
	clk.Enter(2) // t=11: ladder 2ms
	clk.Enter(3) // t=12: rpc +1ms
	clk.Done(1, 0, func() string { return "label" })
	// Done closed recover at t=13: +1ms.

	want := []time.Duration{3, 2, 3, 2, 2}
	var sum time.Duration
	for i, name := range fam.Names() {
		h := fam.Histogram(i)
		if h.Count() != 1 || h.Sum() != want[i]*time.Millisecond {
			t.Errorf("stage %s: count %d sum %v, want 1 and %vms", name, h.Count(), h.Sum(), want[i])
		}
		sum += h.Sum()
	}
	if got := fam.Access(); got.Count() != 1 || got.Sum() != sum || sum != 12*time.Millisecond {
		t.Fatalf("end-to-end count %d sum %v, stages sum %v: want 1, equal, and 12ms (Start at t=1 to Done at t=13)",
			got.Count(), got.Sum(), sum)
	}
	entries := reg.SlowLog("test_access", 0).Entries()
	if len(entries) != 1 || entries[0].Total != sum || entries[0].Label != "label" || len(entries[0].Stages) != 5 {
		t.Fatalf("slow log holds %+v, want one entry totalling %v with five stages", entries, sum)
	}
	for i, s := range entries[0].Stages {
		if s.Name != fam.Names()[i] || s.D != want[i]*time.Millisecond {
			t.Errorf("slow-log stage %d = %+v, want %s=%vms", i, s, fam.Names()[i], want[i])
		}
	}
}

// TestDoneOnlyFailures: an access (or a round) with no success feeds
// the error counter and nothing else, so stage counts can never drift
// from the end-to-end count.
func TestDoneOnlyFailures(t *testing.T) {
	scriptClock(t, time.Millisecond)
	reg := NewRegistry()
	fam := fiveStages(reg)
	clk, _ := fam.Start(context.Background(), nil, "access")
	clk.Enter(0)
	clk.Enter(2)
	clk.Done(3, 3, func() string { t.Error("failed round asked for a label"); return "" })
	fam.Record(fam.Now(), 0, 1, nil, time.Second, time.Second, time.Second, time.Second, time.Second)

	if got := reg.Value("ortoa_test_access_errors_total"); got != 4 {
		t.Fatalf("error counter = %d, want 4 (3 failed keys + 1 failed record)", got)
	}
	for i, name := range fam.Names() {
		if n := fam.Histogram(i).Count(); n != 0 {
			t.Errorf("stage %s observed %d samples from failures", name, n)
		}
	}
	if fam.Access().Count() != 0 || reg.SlowLog("test_access", 0).Len() != 0 {
		t.Fatal("failures reached the end-to-end histogram or the slow log")
	}
	// A round with one success among failures counts both.
	clk, _ = fam.Start(context.Background(), nil, "access")
	clk.Enter(1)
	clk.Done(3, 2, func() string { return "" })
	if reg.Value("ortoa_test_access_errors_total") != 6 || fam.Access().Count() != 1 || fam.Histogram(0).Count() != 1 {
		t.Fatal("a partly failed round must count its failures and observe one access")
	}
}

// TestClockSpansTile checks the span side of a boundary: under a tracer
// the clock opens a root span and one child per stage entered, the first
// starting with the root, adjacent spans sharing their boundary instant
// and the last ending with it — so the stage spans' durations sum to the
// root's exactly — the running stage's span is what Context hands down,
// and the slow-log entry and the exemplar carry the trace id. An unmetered family (nil registry) still names the spans.
func TestClockSpansTile(t *testing.T) {
	scriptClock(t, time.Millisecond)
	for _, reg := range []*Registry{NewRegistry(), nil} {
		tr := trace.NewTracer("proxy", 64)
		fam := fiveStages(reg)
		clk, ctx := fam.Start(context.Background(), tr, "access")
		root := trace.FromContext(ctx)
		if root == nil {
			t.Fatal("Start returned a context without the root span")
		}
		clk.Enter(0)
		clk.Enter(2)
		if sp := trace.FromContext(clk.Context(ctx)); sp == nil || sp == root {
			t.Fatal("Context does not carry the running stage's span")
		}
		clk.Done(1, 0, func() string { return "x" })

		byName := map[string]trace.SpanRecord{}
		for _, rec := range tr.Snapshot() {
			byName[rec.Name] = rec
		}
		acq, rpc, acc := byName["acquire"], byName["rpc"], byName["access"]
		if len(byName) != 3 || acq.ParentID != acc.SpanID || rpc.ParentID != acc.SpanID || acc.ParentID != 0 {
			t.Fatalf("span tree = %+v, want access parenting acquire and rpc", byName)
		}
		if !acq.Start.Equal(acc.Start) || !acq.Start.Add(acq.Duration).Equal(rpc.Start) || !rpc.Start.Add(rpc.Duration).Equal(acc.Start.Add(acc.Duration)) {
			t.Fatalf("spans do not tile: acquire %v+%v, rpc %v+%v, access %v+%v",
				acq.Start, acq.Duration, rpc.Start, rpc.Duration, acc.Start, acc.Duration)
		}
		if acq.Duration+rpc.Duration != acc.Duration {
			t.Fatalf("stage spans sum to %v, the root span is %v", acq.Duration+rpc.Duration, acc.Duration)
		}
		if reg == nil {
			continue
		}
		if e := reg.SlowLog("test_access", 0).Entries(); len(e) != 1 || e[0].TraceID != root.TraceID() {
			t.Fatalf("slow-log entry %+v does not carry trace id %016x", e, root.TraceID())
		}
		var b strings.Builder
		if err := reg.SlowLog("test_access", 0).WriteText(&b); err != nil || !strings.Contains(b.String(), " trace=") {
			t.Fatalf("/slowlog text %q (err %v) does not show the trace id", b.String(), err)
		}
		b.Reset()
		if err := reg.WritePrometheus(&b); err != nil || !strings.Contains(b.String(), "trace_id=") {
			t.Fatalf("end-to-end histogram carries no exemplar (err %v)", err)
		}
	}
	// A caller's span wins over the component's tracer.
	outer := trace.NewTracer("front", 16)
	parent := outer.StartRoot("server_handle")
	clk, _ := fiveStages(nil).Start(trace.ContextWith(context.Background(), parent), trace.NewTracer("proxy", 16), "access")
	clk.Done(1, 0, nil)
	if recs := outer.Snapshot(); len(recs) != 1 || recs[0].Name != "access" || recs[0].ParentID != parent.Context().SpanID {
		t.Fatalf("root span %+v is not a child of the caller's span", recs)
	}
}

// TestInterval covers the single-interval helper: pieces add up, the
// pause is not counted, and the span ends on End's reading.
func TestInterval(t *testing.T) {
	scriptClock(t, time.Millisecond)
	var h Histogram
	tr := trace.NewTracer("server", 16)
	iv := Time(&h, tr.StartRoot("server_handle")) // t0 = 1 (the span read the real clock)
	iv.Pause()                                    // t=2: 1ms
	now()                                         // t=3, paused
	iv.Resume()                                   // t=4
	iv.End()                                      // t=5: +1ms
	if h.Count() != 1 || h.Sum() != 2*time.Millisecond {
		t.Fatalf("interval observed count %d sum %v, want 1 and 2ms", h.Count(), h.Sum())
	}
	if recs := tr.Snapshot(); len(recs) != 1 {
		t.Fatalf("interval ended %d spans, want 1", len(recs))
	}
	dropped := Time(&h, nil)
	dropped.Pause()
	if h.Count() != 1 {
		t.Fatal("an interval dropped without End must report nothing")
	}
}

// BenchmarkClock measures what the boundaries of one access cost: inert
// (the uninstrumented path: branches only) and metered.
func BenchmarkClock(b *testing.B) {
	for _, bc := range []struct {
		name string
		fam  *Stages
	}{{"inert", fiveStages(nil)}, {"metered", fiveStages(NewRegistry())}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				clk, _ := bc.fam.Start(ctx, nil, "access")
				clk.Enter(0)
				clk.Enter(1)
				clk.Enter(2)
				clk.Enter(3)
				clk.Done(1, 0, func() string { return "" })
			}
		})
	}
}
