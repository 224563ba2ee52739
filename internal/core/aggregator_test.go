package core

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ortoa/internal/obs"
)

// sortExchanges orders observations the way observedRun does, so
// multisets compare positionally.
func sortExchanges(s []exchange) {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.msgType != b.msgType {
			return a.msgType < b.msgType
		}
		if a.reqLen != b.reqLen {
			return a.reqLen < b.reqLen
		}
		return a.respLen < b.respLen
	})
}

// newAggRig builds an LBL deployment with n loaded keys ("key-00"…)
// whose value byte i is the key index, plus an aggregator over the
// proxy with the given window config.
func newAggRig(t *testing.T, n, valueSize int, cfg AggregatorConfig) (*rig, *LBLProxy, *Aggregator) {
	t.Helper()
	r, proxy, _ := newLBL(t, LBLPointPermute, valueSize)
	data := map[string][]byte{}
	for i := 0; i < n; i++ {
		v := make([]byte, valueSize)
		v[0] = byte(i)
		data[fmt.Sprintf("key-%02d", i)] = v
	}
	loadData(t, r, proxy, data)
	agg := NewAggregator(cfg, proxy)
	t.Cleanup(agg.Close)
	return r, proxy, agg
}

// TestAggregatorCoalescesConcurrentSessions checks the core promise:
// concurrent sessions' single-key accesses land in one window, go out
// as one batch, and every session gets its own key's value back.
func TestAggregatorCoalescesConcurrentSessions(t *testing.T) {
	const n = 8
	_, _, agg := newAggRig(t, n, 4, AggregatorConfig{Window: time.Hour, MaxBatch: n})

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := agg.Access(OpRead, fmt.Sprintf("key-%02d", i), nil)
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			if v[0] != byte(i) {
				t.Errorf("session %d read %v, want first byte %d", i, v, i)
			}
		}(i)
	}
	wg.Wait()

	st := agg.Stats()
	if st.Accesses != n || st.Batches != 1 {
		t.Errorf("stats = %+v, want %d accesses in 1 window", st, n)
	}
	if got := st.CoalesceRatio(); got != n {
		t.Errorf("coalesce ratio = %v, want %d", got, n)
	}
}

// TestAggregatorTimerDispatch checks the time trigger: a window that
// never fills still dispatches after Window.
func TestAggregatorTimerDispatch(t *testing.T) {
	_, _, agg := newAggRig(t, 4, 4, AggregatorConfig{Window: 2 * time.Millisecond, MaxBatch: 64})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := agg.Access(OpRead, fmt.Sprintf("key-%02d", i), nil)
			if err != nil {
				t.Errorf("session %d: %v", i, err)
			} else if v[0] != byte(i) {
				t.Errorf("session %d read %v", i, v)
			}
		}(i)
	}
	wg.Wait()
	if st := agg.Stats(); st.Accesses != 3 || st.Batches == 0 {
		t.Errorf("stats = %+v, want 3 accesses dispatched", st)
	}
}

// TestAggregatorWindowCloseRacesArrivals hammers the hand-off: tiny
// windows and a small size trigger while many sessions issue
// dependent read/write sequences, so window closes (timer and size
// triggers racing) constantly overlap new arrivals. Run under -race
// this is the aggregator's main concurrency test.
func TestAggregatorWindowCloseRacesArrivals(t *testing.T) {
	const sessions = 8
	const rounds = 6
	const valueSize = 4
	_, _, agg := newAggRig(t, sessions, valueSize,
		AggregatorConfig{Window: 200 * time.Microsecond, MaxBatch: 4})

	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%02d", s)
			want := byte(s)
			for r := 0; r < rounds; r++ {
				v, _, err := agg.Access(OpRead, key, nil)
				if err != nil {
					t.Errorf("session %d round %d read: %v", s, r, err)
					return
				}
				if v[0] != want {
					t.Errorf("session %d round %d read %d, want %d", s, r, v[0], want)
					return
				}
				want = byte(s + 16 + r)
				nv := make([]byte, valueSize)
				nv[0] = want
				if _, _, err := agg.Access(OpWrite, key, nv); err != nil {
					t.Errorf("session %d round %d write: %v", s, r, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	st := agg.Stats()
	if st.Accesses != sessions*rounds*2 {
		t.Errorf("accesses = %d, want %d", st.Accesses, sessions*rounds*2)
	}
	if st.Batches == 0 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want dispatched windows and no rejections", st)
	}
}

// stubBatch is a BatchAccessor that answers instantly, echoing each
// op's key as its value.
type stubBatch struct{}

func (stubBatch) AccessBatchResults(_ context.Context, ops []BatchOp) ([]BatchResult, AccessStats) {
	res := make([]BatchResult, len(ops))
	for i := range ops {
		res[i] = BatchResult{Value: []byte(ops[i].Key)}
	}
	return res, AccessStats{}
}

// TestAggregatorBackpressure fills the pending budget with parked
// accesses and checks that the next arrival is rejected rather than
// queued, and that the parked accesses still complete.
func TestAggregatorBackpressure(t *testing.T) {
	const budget = 4
	agg := NewAggregator(AggregatorConfig{Window: time.Hour, MaxBatch: 100, MaxPending: budget}, stubBatch{})

	var wg sync.WaitGroup
	for i := 0; i < budget; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := agg.Access(OpRead, fmt.Sprintf("k%d", i), nil)
			if err != nil {
				t.Errorf("parked access %d: %v", i, err)
			} else if string(v) != fmt.Sprintf("k%d", i) {
				t.Errorf("parked access %d got %q", i, v)
			}
		}(i)
	}
	// The window is an hour long, so the budget stays full until Close.
	for deadline := time.Now().Add(5 * time.Second); agg.Stats().Accesses < budget; {
		if time.Now().After(deadline) {
			t.Fatal("parked accesses never admitted")
		}
		time.Sleep(100 * time.Microsecond)
	}

	if _, _, err := agg.Access(OpRead, "overflow", nil); !errors.Is(err, ErrAggregatorOverloaded) {
		t.Fatalf("overflow access error = %v, want ErrAggregatorOverloaded", err)
	}
	if st := agg.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}

	agg.Close() // flushes the parked window; every admitted access answers
	wg.Wait()

	if _, _, err := agg.Access(OpRead, "late", nil); !errors.Is(err, ErrAggregatorClosed) {
		t.Errorf("post-close access error = %v, want ErrAggregatorClosed", err)
	}
}

// TestAggregatorErrorIsolation puts two doomed accesses — an unloaded
// key and a wrong-size write — in a window with six good ones: the
// bad accesses fail individually and the rest of the window is
// unaffected.
func TestAggregatorErrorIsolation(t *testing.T) {
	const n = 8
	_, _, agg := newAggRig(t, n-2, 4, AggregatorConfig{Window: time.Hour, MaxBatch: n})

	errs := make([]error, n)
	vals := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i {
			case n - 2: // never loaded
				vals[i], _, errs[i] = agg.Access(OpRead, "ghost", nil)
			case n - 1: // wrong write size
				vals[i], _, errs[i] = agg.Access(OpWrite, "key-00", []byte{1, 2})
			default:
				vals[i], _, errs[i] = agg.Access(OpRead, fmt.Sprintf("key-%02d", i), nil)
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < n-2; i++ {
		if errs[i] != nil {
			t.Errorf("good access %d failed: %v", i, errs[i])
		} else if vals[i][0] != byte(i) {
			t.Errorf("good access %d read %v", i, vals[i])
		}
	}
	if errs[n-2] == nil {
		t.Error("ghost-key access succeeded, want error")
	}
	if !errors.Is(errs[n-1], ErrValueSize) {
		t.Errorf("wrong-size write error = %v, want ErrValueSize", errs[n-1])
	}
	if st := agg.Stats(); st.Batches != 1 {
		t.Errorf("batches = %d, want the whole window in one dispatch", st.Batches)
	}
}

// TestAccessBatchResultsPerOpErrors exercises the per-op outcome API
// directly: valid and invalid ops mixed in one call.
func TestAccessBatchResultsPerOpErrors(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 4)
	loadData(t, r, proxy, map[string][]byte{
		"alpha": {1, 0, 0, 0},
		"beta":  {2, 0, 0, 0},
	})
	res, _ := proxy.AccessBatchResults(context.Background(), []BatchOp{
		{Op: OpRead, Key: "alpha"},
		{Op: OpWrite, Key: "beta", Value: []byte{9}}, // wrong size
		{Op: OpRead, Key: "missing"},
		{Op: OpWrite, Key: "beta", Value: []byte{7, 0, 0, 0}},
		{Op: Op(99), Key: "alpha"},
		{Op: OpRead, Key: "beta"},
	})
	if res[0].Err != nil || res[0].Value[0] != 1 {
		t.Errorf("op 0 = %+v, want alpha's value", res[0])
	}
	if !errors.Is(res[1].Err, ErrValueSize) {
		t.Errorf("op 1 err = %v, want ErrValueSize", res[1].Err)
	}
	if res[2].Err == nil {
		t.Error("op 2 (missing key) succeeded, want error")
	}
	if res[3].Err != nil || !bytes.Equal(res[3].Value, []byte{7, 0, 0, 0}) {
		t.Errorf("op 3 = %+v, want written value echoed", res[3])
	}
	if res[4].Err == nil {
		t.Error("op 4 (unknown op) succeeded, want error")
	}
	// Ops 3 and 5 hit the same key, so they ran in counter-ordered
	// waves; the read in the later wave sees the write.
	if res[5].Err != nil || res[5].Value[0] != 7 {
		t.Errorf("op 5 = %+v, want beta's new value", res[5])
	}
}

// TestObliviousnessAggregatedWindow checks the aggregation security
// argument at the adversary's boundary: the server's view of one
// aggregated window of n concurrent single-key sessions is identical
// to its view of a natural AccessBatch of n keys — and aggregated
// read windows are indistinguishable from aggregated write windows.
func TestObliviousnessAggregatedWindow(t *testing.T) {
	const n = 6
	const valueSize = 8

	observe := func(r *rig) (*[]exchange, *sync.Mutex) {
		var mu sync.Mutex
		seen := &[]exchange{}
		r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
			mu.Lock()
			*seen = append(*seen, exchange{msgType, reqLen, respLen})
			mu.Unlock()
		})
		return seen, &mu
	}
	sorted := func(seen []exchange) []exchange {
		out := append([]exchange(nil), seen...)
		sortExchanges(out)
		return out
	}

	aggregatedRun := func(t *testing.T, op Op) []exchange {
		r, _, agg := newAggRig(t, n, valueSize, AggregatorConfig{Window: time.Hour, MaxBatch: n})
		seen, _ := observe(r)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var err error
				if op == OpWrite {
					v := make([]byte, valueSize)
					v[0] = byte(i + 100)
					_, _, err = agg.Access(OpWrite, fmt.Sprintf("key-%02d", i), v)
				} else {
					_, _, err = agg.Access(OpRead, fmt.Sprintf("key-%02d", i), nil)
				}
				if err != nil {
					t.Errorf("session %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		return sorted(*seen)
	}

	naturalRun := func(t *testing.T) []exchange {
		r, proxy, _ := newLBL(t, LBLPointPermute, valueSize)
		data := map[string][]byte{}
		for i := 0; i < n; i++ {
			data[fmt.Sprintf("key-%02d", i)] = make([]byte, valueSize)
		}
		loadData(t, r, proxy, data)
		seen, _ := observe(r)
		ops := make([]BatchOp, n)
		for i := range ops {
			ops[i] = BatchOp{Op: OpRead, Key: fmt.Sprintf("key-%02d", i)}
		}
		if _, _, err := proxy.AccessBatch(ops); err != nil {
			t.Fatal(err)
		}
		return sorted(*seen)
	}

	aggReads := aggregatedRun(t, OpRead)
	aggWrites := aggregatedRun(t, OpWrite)
	natural := naturalRun(t)

	// Aggregated window vs natural batch of the same size: identical.
	assertIdenticalViews(t, aggReads, natural)
	// Aggregated reads vs aggregated writes: identical.
	assertIdenticalViews(t, aggReads, aggWrites)
}

// TestAggregatorSlowlogWindowMetadata checks the slowlog attribution
// fix: an aggregated access's entry names the window it rode
// (window=N) and reports coalescing latency as its own window_wait
// stage plus a batch_rpc stage — the wait is never folded into rpc.
// The aggregator holds no PRF, so its labels must carry no key material
// at all — neither the text of a plaintext key's prefix nor its hex —
// and point at the access through the trace id instead.
func TestAggregatorSlowlogWindowMetadata(t *testing.T) {
	const n = 4
	_, _, agg := newAggRig(t, n, 4, AggregatorConfig{Window: time.Hour, MaxBatch: n})
	reg := obs.NewRegistry()
	agg.Instrument(reg)
	tr := reg.Tracer("proxy", 64)
	agg.TraceWith(tr)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := agg.Access(OpRead, fmt.Sprintf("key-%02d", i), nil); err != nil {
				t.Errorf("session %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	slow := reg.SlowLog("agg_access", 32)
	entries := slow.Entries()
	if len(entries) != n {
		t.Fatalf("slowlog retained %d entries, want %d", len(entries), n)
	}
	sessions := map[uint64]bool{}
	for _, rec := range tr.Snapshot() {
		sessions[rec.TraceID] = sessions[rec.TraceID] || rec.Name == "agg_session"
	}
	for _, e := range entries {
		if !strings.Contains(e.Label, fmt.Sprintf("window=%d", n)) {
			t.Fatalf("entry label %q missing window size", e.Label)
		}
		for _, leak := range []string{"key-", hex.EncodeToString([]byte("key-")), "ek="} {
			if strings.Contains(e.Label, leak) {
				t.Fatalf("entry label %q carries key material (%q): /slowlog must never show plaintext key bytes", e.Label, leak)
			}
		}
		if !sessions[e.TraceID] {
			t.Fatalf("entry %q carries trace id %016x, which resolves to no agg_session span", e.Label, e.TraceID)
		}
		stages := map[string]time.Duration{}
		var sum time.Duration
		for _, s := range e.Stages {
			stages[s.Name] = s.D
			sum += s.D
		}
		if _, ok := stages["window_wait"]; !ok {
			t.Fatalf("entry %q has no window_wait stage: %+v", e.Label, e.Stages)
		}
		if _, ok := stages["batch_rpc"]; !ok {
			t.Fatalf("entry %q has no batch_rpc stage: %+v", e.Label, e.Stages)
		}
		if sum != e.Total {
			t.Fatalf("entry %q stages sum to %v but total is %v: latency misattributed", e.Label, sum, e.Total)
		}
	}
}
