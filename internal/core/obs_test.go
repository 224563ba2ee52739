package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
)

// TestStageCountsMatchAccessCount pins what one clock guarantees: a
// round whose every key fails — an unloaded key, rejected by the server
// after the request was built and sent — counts its failed accesses and
// observes nothing else, and a round with a success observes every stage
// exactly once, so the four stage histograms' counts always equal
// ortoa_lbl_access_seconds' and their sums add up to its sum.
func TestStageCountsMatchAccessCount(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 8)
	reg := obs.NewRegistry()
	proxy.Instrument(reg)
	loadData(t, r, proxy, map[string][]byte{"loaded": make([]byte, 8), "also": make([]byte, 8)})
	stages := LBLStages(reg)

	check := func(when string, accesses uint64, failed int64) {
		t.Helper()
		var sum time.Duration
		for i, name := range stages.Names() {
			h := stages.Histogram(i)
			if h.Count() != accesses {
				t.Errorf("%s: stage %s has %d observations, want %d", when, name, h.Count(), accesses)
			}
			sum += h.Sum()
		}
		if e2e := stages.Access(); e2e.Count() != accesses || e2e.Sum() != sum {
			t.Errorf("%s: end-to-end count %d sum %v, want %d and the stages' %v", when, e2e.Count(), e2e.Sum(), accesses, sum)
		}
		if got := reg.Value("ortoa_lbl_access_errors_total"); got != failed {
			t.Errorf("%s: ortoa_lbl_access_errors_total = %d, want %d", when, got, failed)
		}
	}

	if _, _, err := proxy.Access(OpRead, "never-loaded", nil); err == nil || !strings.Contains(err.Error(), ErrNotFound.Error()) {
		t.Fatalf("access to an unloaded key: %v, want the server's not-found rejection", err)
	}
	check("after a round whose only key failed", 0, 1)

	if _, _, err := proxy.Access(OpRead, "loaded", nil); err != nil {
		t.Fatal(err)
	}
	check("after one good access", 1, 1)

	// A round of three with one failure: one observation, one more error.
	if _, _, err := proxy.AccessBatch([]BatchOp{
		{Op: OpRead, Key: "loaded"}, {Op: OpRead, Key: "never-loaded"}, {Op: OpRead, Key: "also"},
	}); err == nil || !strings.Contains(err.Error(), ErrNotFound.Error()) {
		t.Fatalf("batch with an unloaded key: %v, want the server's not-found rejection", err)
	}
	check("after a partly failed round", 2, 2)
}

// fillSlowLog leaves a slow log with no room for an access shorter than
// an hour, the state a long-running daemon's is in.
func fillSlowLog(t *testing.T, reg *obs.Registry, fam *obs.Stages, name string) {
	t.Helper()
	for i := 0; i < 32; i++ {
		fam.Record(time.Now(), 0, 0, func() string { return "filler" }, time.Hour)
	}
	if n := reg.SlowLog(name, 32).Len(); n != 32 {
		t.Fatalf("slow log %s holds %d entries after filling, want 32", name, n)
	}
}

// TestInstrumentationAllocations is the allocation gate on the access
// path: over a loopback LBL access, metrics on every layer (proxy,
// both transport ends, server) cost no allocation over the bare path
// once the slow log has filled, and tracing costs exactly the spans it
// records.
func TestInstrumentationAllocations(t *testing.T) {
	measure := func(instrument, traced bool) uint64 {
		r, proxy, srv := newLBL(t, LBLPointPermute, 160)
		loadData(t, r, proxy, map[string][]byte{"k": make([]byte, 160)})
		if instrument {
			reg := obs.NewRegistry()
			proxy.Instrument(reg)
			srv.Instrument(reg)
			r.client.Instrument(reg)
			r.server.Instrument(reg)
			fillSlowLog(t, reg, LBLStages(reg), "lbl_access")
			if traced {
				proxy.TraceWith(reg.Tracer("proxy", 64))
				r.server.SetTracer(reg.Tracer("server", 64))
			}
		}
		return steadyAllocs(500, func() {
			if _, _, err := proxy.Access(OpRead, "k", nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, metered, traced := measure(false, false), measure(true, false), measure(true, true)
	t.Logf("allocations per access: bare %d, metered %d, metered and traced %d", bare, metered, traced)
	if metered != bare {
		t.Errorf("metrics-only instrumentation allocates %d per access, bare %d: want no difference", metered, bare)
	}
	// Eight spans per traced access (DESIGN.md §13: lbl_access, its four
	// stages, transport_attempt, server_handle, server_decrypt), each one
	// Span plus its SpanRecord, and one context per span handed down
	// (lbl_access, rpc, server_handle).
	const tracingAllocs = 8*2 + 3
	if traced-bare != tracingAllocs {
		t.Errorf("tracing allocates %d per access over bare (%d vs %d), want exactly %d", traced-bare, traced, bare, tracingAllocs)
	}
}

// steadyAllocs is what one call of f allocates once every pool on its
// path is warm: the fewest mallocs any of runs calls made, each counted
// by itself. testing.AllocsPerRun's floored mean is that number only
// while nothing else allocates; under the race detector sync.Pool drops
// a quarter of its puts at random, every drop is an allocation on a later
// call, and two floored means of the same path land on different sides of
// an integer now and then. Noise of that kind only ever adds, so the
// minimum is exact with the detector and without it.
func steadyAllocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	best := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.Mallocs-before)
	}
	return best
}

// TestTEEAndFHEAccessesAreTraced covers what the TEE and FHE clients
// gained by declaring their stages instead of timing them by hand: under
// a tracer an access records a root span parenting one span per stage,
// with the transport's attempt beneath rpc, and the slow log retains an
// entry with the stages and the trace id, labelled by the key's
// pseudonym.
func TestTEEAndFHEAccessesAreTraced(t *testing.T) {
	type client interface {
		recordBuilder
		Accessor
		Instrument(*obs.Registry)
		TraceWith(*trace.Tracer)
	}
	for _, tc := range []struct {
		name, root string
		stages     []string
		build      func(t *testing.T) (*rig, client, *prf.PRF)
	}{
		{"tee", "tee_access", []string{"seal", "rpc", "open"},
			func(t *testing.T) (*rig, client, *prf.PRF) { r, c, _ := newTEE(t, 8); return r, c, c.prf }},
		{"fhe", "fhe_access", []string{"encrypt", "rpc", "decrypt"},
			func(t *testing.T) (*rig, client, *prf.PRF) { r, c := newFHE(t); return r, c, c.prf }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, c, f := tc.build(t)
			reg := obs.NewRegistry()
			tr := reg.Tracer("proxy", 64)
			c.Instrument(reg)
			c.TraceWith(tr)
			loadData(t, r, c, map[string][]byte{"k": {1, 2, 3, 4, 5, 6, 7, 8}})
			if _, _, err := c.Access(OpRead, "k", nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Access(OpRead, "never-loaded", nil); err == nil {
				t.Fatal("access to an unloaded key succeeded")
			}

			byName := map[string][]trace.SpanRecord{}
			for _, rec := range tr.Snapshot() {
				byName[rec.Name] = append(byName[rec.Name], rec)
			}
			roots := byName[tc.root]
			if len(roots) != 2 {
				t.Fatalf("%d %s root spans for two accesses, spans: %v", len(roots), tc.root, byName)
			}
			entries := reg.SlowLog(tc.root, 32).Entries()
			if len(entries) != 1 {
				t.Fatalf("slow log retained %d entries, want 1 (the failed access is counted, not logged)", len(entries))
			}
			e := entries[0]
			var root trace.SpanRecord
			for _, rec := range roots {
				if rec.TraceID == e.TraceID {
					root = rec
				}
			}
			if root.SpanID == 0 || root.ParentID != 0 {
				t.Fatalf("slow-log entry's trace id %016x names no root span among %+v", e.TraceID, roots)
			}
			var sum time.Duration
			for i, name := range tc.stages {
				if e.Stages[i].Name != name {
					t.Errorf("slow-log stage %d is %q, want %q", i, e.Stages[i].Name, name)
				}
				sum += e.Stages[i].D
				found := false
				for _, rec := range byName[name] {
					found = found || rec.TraceID == root.TraceID && rec.ParentID == root.SpanID
				}
				if !found {
					t.Errorf("no %q span under the %s root", name, tc.root)
				}
			}
			if sum != e.Total || sum > root.Duration {
				t.Errorf("slow-log stages sum to %v, total %v, root span %v", sum, e.Total, root.Duration)
			}
			if want := traceLabel(f.EncodeKey("k")); e.Label != want {
				t.Errorf("slow-log label %q, want the key's pseudonym %q", e.Label, want)
			}
			attached := false
			for _, att := range byName["transport_attempt"] {
				for _, rpc := range byName["rpc"] {
					attached = attached || att.ParentID == rpc.SpanID && att.TraceID == root.TraceID
				}
			}
			if !attached {
				t.Error("the transport's attempt span is not under the rpc stage")
			}
			if got := reg.Value("ortoa_" + tc.name + "_access_errors_total"); got != 1 {
				t.Errorf("ortoa_%s_access_errors_total = %d, want 1", tc.name, got)
			}
		})
	}
}
