package core

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
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

// closeAt makes agg's windows close at exactly n accesses (a held chain
// aside), the deterministic trigger of these tests, as a byte budget of
// n accesses' request bytes would.
func closeAt(agg *Aggregator, n int) *Aggregator {
	agg.fill = n
	return agg
}

// newAggRig builds an LBL deployment with n loaded keys ("key-00"…)
// whose value byte i is the key index, plus an aggregator over the
// proxy whose windows wait for window and close at trigger accesses.
func newAggRig(t *testing.T, n, valueSize int, window time.Duration, trigger int) (*rig, *LBLProxy, *Aggregator) {
	t.Helper()
	r, proxy, _ := newLBL(t, LBLPointPermute, valueSize)
	data := map[string][]byte{}
	for i := 0; i < n; i++ {
		v := make([]byte, valueSize)
		v[0] = byte(i)
		data[fmt.Sprintf("key-%02d", i)] = v
	}
	loadData(t, r, proxy, data)
	agg := closeAt(NewAggregator(AggregatorConfig{Window: window}, proxy.Config().RequestBytesPerAccess(), proxy), trigger)
	t.Cleanup(agg.Close)
	return r, proxy, agg
}

// TestAggregatorCoalescesConcurrentSessions checks the core promise:
// concurrent sessions' single-key accesses land in one window, go out
// as one batch, and every session gets its own key's value back.
func TestAggregatorCoalescesConcurrentSessions(t *testing.T) {
	const n = 8
	_, _, agg := newAggRig(t, n, 4, time.Hour, n)

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
	_, _, agg := newAggRig(t, 4, 4, 2*time.Millisecond, 64)
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
	_, _, agg := newAggRig(t, sessions, valueSize, 200*time.Microsecond, 4)

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
	agg := closeAt(NewAggregator(AggregatorConfig{Window: time.Hour, MaxPending: budget}, 1, stubBatch{}), 100)

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
	waitAdmitted(t, agg, budget)

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
	_, _, agg := newAggRig(t, n-2, 4, time.Hour, n)

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
	// Ops 3 and 5 hit the same key, so they ran as one chain, in input
	// order; the read behind the write sees it.
	if res[5].Err != nil || res[5].Value[0] != 7 {
		t.Errorf("op 5 = %+v, want beta's new value", res[5])
	}
}

// TestObliviousnessAggregatedWindow checks the aggregation security
// argument at the adversary's boundary: the server's view of one
// aggregated window of n concurrent single-key sessions is identical
// to its view of a natural AccessBatch of the same keys — and aggregated
// read windows are indistinguishable from aggregated write windows. The
// chain row gives several sessions the same key: the window then carries
// a chain, as the natural batch with the same duplicates does.
func TestObliviousnessAggregatedWindow(t *testing.T) {
	const valueSize = 8

	observe := func(r *rig) *[]exchange {
		var mu sync.Mutex
		seen := &[]exchange{}
		r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
			mu.Lock()
			*seen = append(*seen, exchange{msgType, reqLen, respLen})
			mu.Unlock()
		})
		return seen
	}
	sorted := func(seen []exchange) []exchange {
		out := append([]exchange(nil), seen...)
		sortExchanges(out)
		return out
	}

	for _, tc := range []struct {
		name string
		keys []int // the key each session accesses
	}{
		{"distinct", []int{0, 1, 2, 3, 4, 5}},
		{"chain", []int{0, 1, 1, 2, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.keys)
			aggregatedRun := func(t *testing.T, op Op) []exchange {
				r, _, agg := newAggRig(t, n, valueSize, time.Hour, n)
				seen := observe(r)
				var wg sync.WaitGroup
				for i, k := range tc.keys {
					wg.Add(1)
					go func(i, k int) {
						defer wg.Done()
						var err error
						if op == OpWrite {
							v := make([]byte, valueSize)
							v[0] = byte(i + 100)
							_, _, err = agg.Access(OpWrite, fmt.Sprintf("key-%02d", k), v)
						} else {
							_, _, err = agg.Access(OpRead, fmt.Sprintf("key-%02d", k), nil)
						}
						if err != nil {
							t.Errorf("session %d: %v", i, err)
						}
					}(i, k)
				}
				wg.Wait()
				if st := agg.Stats(); st.Batches != 1 {
					t.Errorf("the %d sessions left in %d windows, want 1", n, st.Batches)
				}
				return sorted(*seen)
			}

			naturalRun := func(t *testing.T) []exchange {
				r, proxy, _ := newLBL(t, LBLPointPermute, valueSize)
				data := map[string][]byte{}
				for i := 0; i < n; i++ {
					data[fmt.Sprintf("key-%02d", i)] = make([]byte, valueSize)
				}
				loadData(t, r, proxy, data)
				seen := observe(r)
				ops := make([]BatchOp, n)
				for i, k := range tc.keys {
					ops[i] = BatchOp{Op: OpRead, Key: fmt.Sprintf("key-%02d", k)}
				}
				if _, _, err := proxy.AccessBatch(ops); err != nil {
					t.Fatal(err)
				}
				return sorted(*seen)
			}

			aggReads := aggregatedRun(t, OpRead)
			aggWrites := aggregatedRun(t, OpWrite)
			natural := naturalRun(t)
			if len(natural) != 1 {
				t.Fatalf("the natural batch crossed as %d exchanges, want 1", len(natural))
			}

			// Aggregated window vs natural batch of the same keys: identical.
			assertIdenticalViews(t, aggReads, natural)
			// Aggregated reads vs aggregated writes: identical.
			assertIdenticalViews(t, aggReads, aggWrites)
		})
	}
}

// TestAggregatorSlowlogWindowMetadata checks the slowlog attribution
// fix: an aggregated access's entry names the window it rode
// (window=N) and reports coalescing latency as stages of its own —
// key_wait, window_wait — beside batch_rpc: the waits are never folded
// into rpc.
// The aggregator holds no PRF, so its labels must carry no key material
// at all — neither the text of a plaintext key's prefix nor its hex —
// and point at the access through the trace id instead.
func TestAggregatorSlowlogWindowMetadata(t *testing.T) {
	const n = 4
	_, _, agg := newAggRig(t, n, 4, time.Hour, n)
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
		for _, want := range []string{"key_wait", "window_wait", "batch_rpc"} {
			if _, ok := stages[want]; !ok {
				t.Fatalf("entry %q has no %s stage: %+v", e.Label, want, e.Stages)
			}
		}
		if sum != e.Total {
			t.Fatalf("entry %q stages sum to %v but total is %v: latency misattributed", e.Label, sum, e.Total)
		}
	}
}

// waitAdmitted returns once agg has admitted n accesses in all.
func waitAdmitted(t *testing.T, agg *Aggregator, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); agg.Stats().Accesses < n; {
		if time.Now().After(deadline) {
			t.Fatalf("access %d never admitted", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// admitAfter starts one access on its own goroutine and returns once the
// aggregator has admitted it, so a test can fix the order accesses are
// admitted in.
func admitAfter(t *testing.T, agg *Aggregator, wg *sync.WaitGroup, op Op, key string, tag byte) {
	t.Helper()
	before := agg.Stats().Accesses
	wg.Add(1)
	go func() {
		defer wg.Done()
		var value []byte
		if op == OpWrite {
			value = []byte{tag, 0, 0, 0}
		}
		if _, _, err := agg.Access(op, key, value); err != nil {
			t.Errorf("access %s %s: %v", op, key, err)
		}
	}()
	waitAdmitted(t, agg, before+1)
}

// TestAggregatorHoldsBusyKey pins the per-key deferral: while a key's
// round is in flight, accesses to it are held — no window carries them
// to queue on the key's counter — and accesses to other keys leave
// without waiting for it; when the round returns, everything held for
// the key leaves together, past the byte budget, in the order it was
// admitted.
func TestAggregatorHoldsBusyKey(t *testing.T) {
	backend := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{}, 8)}
	agg := closeAt(NewAggregator(AggregatorConfig{Window: time.Hour}, 1, backend), 1)
	var wg sync.WaitGroup
	admitAfter(t, agg, &wg, OpRead, "hot", 0)
	<-backend.entered // round 1 holds "hot" in flight
	admitAfter(t, agg, &wg, OpWrite, "hot", 1)
	admitAfter(t, agg, &wg, OpWrite, "hot", 2)
	admitAfter(t, agg, &wg, OpRead, "calm", 0)
	<-backend.entered // "calm" left at once: it waits for no one's key
	admitAfter(t, agg, &wg, OpWrite, "hot", 3)
	if rounds := backend.roundKeys(); len(rounds) != 2 {
		t.Fatalf("rounds while hot is in flight = %q, want [hot calm]: held accesses must not be sent", rounds)
	}
	backend.gate <- struct{}{} // round 1 returns; nothing says which of the two the token reaches first
	backend.gate <- struct{}{}
	<-backend.entered // the held chain
	backend.gate <- struct{}{}
	wg.Wait()
	agg.Close()
	want := []string{"hot", "calm", "hot=1 hot=2 hot=3"}
	if rounds := backend.roundKeys(); fmt.Sprint(rounds) != fmt.Sprint(want) {
		t.Errorf("rounds = %q, want %q", rounds, want)
	}
	if len(backend.shared) != 0 {
		t.Errorf("keys %q were in two rounds at once", backend.shared)
	}
}

// TestAggregatorNeverSharesAKey is the invariant behind the deferral,
// under a workload where one key draws most of the traffic: no two
// in-flight rounds ever carry the same key. A window that carries a key
// several times must end that key's time in flight once — releasing it
// per waiter un-marks the key again after its held chain has already
// been sent, and the next window shares it.
func TestAggregatorNeverSharesAKey(t *testing.T) {
	backend := &gatedBackend{entered: make(chan struct{}, 1<<12)}
	agg := closeAt(NewAggregator(AggregatorConfig{Window: 100 * time.Microsecond}, 1, backend), 2)
	const sessions, rounds = 16, 40
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := "hot"
				if (s+r)%4 == 0 {
					key = fmt.Sprintf("cold-%d", s)
				}
				if _, _, err := agg.Access(OpRead, key, nil); err != nil {
					t.Errorf("session %d access %d: %v", s, r, err)
					return
				}
				runtime.Gosched()
			}
		}(s)
	}
	wg.Wait()
	agg.Close()
	if len(backend.shared) != 0 {
		t.Fatalf("%d times a key was in two rounds at once (first: %q)", len(backend.shared), backend.shared[0])
	}
	chained := 0
	for _, ops := range backend.rounds {
		hot := 0
		for _, op := range ops {
			if op.Key == "hot" {
				hot++
			}
		}
		if hot > 1 {
			chained++
		}
	}
	if chained == 0 {
		t.Error("no round carried the hot key more than once: the workload never exercised a chain")
	}
}

// TestAggregatorCloseAnswersHeld: Close returns only once every admitted
// access has its answer — the open window's by the round Close sends,
// those held for a key by the round that follows when the key comes
// back.
func TestAggregatorCloseAnswersHeld(t *testing.T) {
	backend := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	agg := closeAt(NewAggregator(AggregatorConfig{Window: time.Hour}, 1, backend), 2)
	var wg sync.WaitGroup
	admitAfter(t, agg, &wg, OpRead, "hot", 0)
	admitAfter(t, agg, &wg, OpRead, "warm", 0)
	<-backend.entered // round 1: hot, warm
	admitAfter(t, agg, &wg, OpWrite, "hot", 1)
	admitAfter(t, agg, &wg, OpWrite, "hot", 2)
	admitAfter(t, agg, &wg, OpRead, "calm", 0) // alone in the open window, an hour to wait

	closed := make(chan struct{})
	go func() {
		agg.Close()
		close(closed)
	}()
	<-backend.entered // Close sent the open window
	select {
	case <-closed:
		t.Fatal("Close returned with accesses in flight and held")
	case <-time.After(10 * time.Millisecond):
	}
	close(backend.gate)
	<-closed
	wg.Wait() // every access was answered without error
	want := []string{"hot warm", "calm", "hot=1 hot=2"}
	if rounds := backend.roundKeys(); fmt.Sprint(rounds) != fmt.Sprint(want) {
		t.Errorf("rounds = %q, want %q", rounds, want)
	}
	if _, _, err := agg.Access(OpRead, "late", nil); !errors.Is(err, ErrAggregatorClosed) {
		t.Errorf("post-close access error = %v, want ErrAggregatorClosed", err)
	}
}

// TestAggregatorPendingBudgetIsItsOwn: the admission budget does not
// shrink with the windows. With windows of one access, 32 concurrent
// sessions — a quarter of them on one key, so held — are all admitted.
func TestAggregatorPendingBudgetIsItsOwn(t *testing.T) {
	if got := (AggregatorConfig{}).maxPending(); got != DefaultAggMaxPending {
		t.Fatalf("default pending budget = %d, want DefaultAggMaxPending = %d", got, DefaultAggMaxPending)
	}
	backend := &gatedBackend{entered: make(chan struct{}, 64), gate: make(chan struct{})}
	agg := closeAt(NewAggregator(AggregatorConfig{Window: time.Hour}, 1, backend), 1)
	var wg sync.WaitGroup
	for s := 0; s < 32; s++ {
		key := "hot"
		if s%4 != 0 {
			key = fmt.Sprintf("key-%d", s)
		}
		admitAfter(t, agg, &wg, OpRead, key, 0)
	}
	close(backend.gate)
	wg.Wait()
	if st := agg.Stats(); st.Rejected != 0 || st.Accesses != 32 {
		t.Errorf("stats = %+v, want 32 admitted and none rejected", st)
	}
}

// TestAggregatorWindowClosesOnBytes pins the size trigger itself, which
// every other test replaces through closeAt: with the timer an hour
// away, a window leaves when it holds as many accesses as fit
// aggWindowBytes at the request bytes one access costs, and an access
// too large to share the budget leaves alone.
func TestAggregatorWindowClosesOnBytes(t *testing.T) {
	for _, tc := range []struct {
		accessBytes int
		want        []string
	}{
		{LBLConfig{ValueSize: 160, Mode: LBLPointPermute}.RequestBytesPerAccess(), []string{"a b", "c d"}},
		{aggWindowBytes/4 + 1, []string{"a b c", "d"}},
		{aggWindowBytes / 4, []string{"a b c d"}},
		{2 * aggWindowBytes, []string{"a", "b", "c", "d"}},
	} {
		backend := &gatedBackend{entered: make(chan struct{}, 8)}
		agg := NewAggregator(AggregatorConfig{Window: time.Hour}, tc.accessBytes, backend)
		var wg sync.WaitGroup
		for i, key := range []string{"a", "b", "c", "d"} {
			admitAfter(t, agg, &wg, OpRead, key, 0)
			// Rounds run on goroutines of their own: let a window that has
			// just been sent reach the backend before the next can.
			for deadline := time.Now().Add(5 * time.Second); len(backend.roundKeys()) < (i+1)/agg.fill; {
				if time.Now().After(deadline) {
					t.Fatalf("%d B an access: %d rounds after %d accesses", tc.accessBytes, len(backend.roundKeys()), i+1)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		agg.Close() // sends what the bytes left open
		wg.Wait()
		if rounds := backend.roundKeys(); fmt.Sprint(rounds) != fmt.Sprint(tc.want) {
			t.Errorf("%d B an access: rounds = %q, want %q", tc.accessBytes, rounds, tc.want)
		}
	}
}
