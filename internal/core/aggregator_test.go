package core

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ortoa/internal/obs"
)

// aggValueSize is the value size of the aggregator tests' deployments,
// and of the writes admitAfter issues.
const aggValueSize = 4

// newAggRig builds an LBL deployment with n loaded keys ("key-00"…)
// whose value byte 0 is the key index, and an aggregator over its proxy
// through a gatedBackend: rounds are recorded, held at the gate until
// the test opens it, and then executed by the real proxy.
func newAggRig(t *testing.T, n int) (*rig, *gatedBackend, *Aggregator) {
	t.Helper()
	r, proxy, _ := newLBL(t, LBLPointPermute, aggValueSize)
	data := map[string][]byte{}
	for i := 0; i < n; i++ {
		v := make([]byte, aggValueSize)
		v[0] = byte(i)
		data[fmt.Sprintf("key-%02d", i)] = v
	}
	loadData(t, r, proxy, data)
	backend := &gatedBackend{inner: proxy, entered: make(chan struct{}, 64), gate: make(chan struct{})}
	agg := NewAggregator(backend)
	t.Cleanup(agg.Close)
	return r, backend, agg
}

// waitAdmitted returns once agg has admitted n accesses in all.
func waitAdmitted(t *testing.T, agg *Aggregator, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); agg.accesses.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("access %d never admitted", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// admitAfter starts one access on its own goroutine — a write of
// {tag, 0, 0, 0} or a read — and returns once the aggregator has admitted
// it, so a test can fix the order accesses are admitted in. The access
// must succeed; its value is behind the returned pointer once wg is done.
func admitAfter(t *testing.T, agg *Aggregator, wg *sync.WaitGroup, op Op, key string, tag byte) *[]byte {
	t.Helper()
	before := agg.accesses.Load()
	got := new([]byte)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var value []byte
		if op == OpWrite {
			value = []byte{tag, 0, 0, 0}
		}
		v, _, err := agg.Access(op, key, value)
		if err != nil {
			t.Errorf("access %s %s: %v", op, key, err)
		}
		*got = v
	}()
	waitAdmitted(t, agg, before+1)
	return got
}

// TestAggregatorCoalescesConcurrentSessions checks the core promise
// against a real proxy and server: sessions on distinct keys never wait
// for each other — n keys are n rounds in flight at once — and sessions
// that arrive for a key while its round is in flight leave together, as
// one chain in one server RPC, applied in the order they were admitted,
// each session getting its own answer.
func TestAggregatorCoalescesConcurrentSessions(t *testing.T) {
	const n = 8
	r, backend, agg := newAggRig(t, n)
	view := observe(r)
	var wg sync.WaitGroup
	first := make([]*[]byte, n)
	for i := range first {
		first[i] = admitAfter(t, agg, &wg, OpRead, fmt.Sprintf("key-%02d", i), 0)
	}
	for i := 0; i < n; i++ {
		<-backend.entered // the gate is shut: all n rounds are in flight together
	}
	w1 := admitAfter(t, agg, &wg, OpWrite, "key-00", 41)
	rd := admitAfter(t, agg, &wg, OpRead, "key-00", 0)
	w2 := admitAfter(t, agg, &wg, OpWrite, "key-00", 42)
	if rounds := backend.roundKeys(); len(rounds) != n {
		t.Fatalf("rounds while key-00 is in flight = %q, want %d: held accesses must not be sent", rounds, n)
	}
	close(backend.gate)
	wg.Wait()

	for i, v := range first {
		if (*v)[0] != byte(i) {
			t.Errorf("session %d read %v, want first byte %d", i, *v, i)
		}
	}
	if (*w1)[0] != 41 || (*rd)[0] != 41 || (*w2)[0] != 42 {
		t.Errorf("chain answered %v %v %v, want 41 41 42: members apply in admission order", *w1, *rd, *w2)
	}
	rounds := backend.roundKeys()
	if len(rounds) != n+1 || rounds[n] != "key-00=41 key-00 key-00=42" {
		t.Errorf("rounds = %q, want %d rounds of one and the chain key-00=41 key-00 key-00=42", rounds, n)
	}
	if rpcs := len(view.sorted()); rpcs != n+1 {
		t.Errorf("server answered %d RPCs, want %d: the chain of three costs one", rpcs, n+1)
	}
	if accesses, rounds := agg.accesses.Load(), agg.rounds.Load(); accesses != n+3 || rounds != n+1 {
		t.Errorf("counted %d accesses in %d rounds, want %d in %d", accesses, rounds, n+3, n+1)
	}
}

// yieldingStub is a BatchAccessor whose round trip is one yield of the
// processor: long enough for an arrival to slip in, short enough that
// most rounds return with little or nothing held.
type yieldingStub struct{}

func (yieldingStub) AccessBatchResults(_ context.Context, ops []BatchOp) ([]BatchResult, AccessStats) {
	runtime.Gosched()
	return make([]BatchResult, len(ops)), AccessStats{}
}

// TestAggregatorArrivalRacesRoundReturn is the aggregator's main
// concurrency test; run it under -race. The one race the design has is an
// arrival for a key against that key's round returning: the arrival must
// either be part of what the return sends next or find the key free and
// leave by itself — never be appended to a list no one will send, never
// overtake an access admitted before it, never put two rounds on the key.
func TestAggregatorArrivalRacesRoundReturn(t *testing.T) {
	// An instant backend, so every round returns about when the next
	// access arrives; accesses admitted one by one, each carrying its
	// place in the order, without waiting for answers.
	t.Run("stub", func(t *testing.T) {
		const n = 4000
		backend := &gatedBackend{inner: yieldingStub{}, entered: make(chan struct{}, n)}
		agg := NewAggregator(backend)
		outstanding := make(chan struct{}, DefaultAggMaxPending/2) // stay inside the pending budget
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			outstanding <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, _, err := agg.Access(OpWrite, "k", []byte{byte(i), byte(i >> 8)}); err != nil {
					t.Errorf("access %d: %v", i, err)
				}
				<-outstanding
			}(i)
			for agg.accesses.Load() <= int64(i) {
				runtime.Gosched()
			}
			// Vary how far the round in flight gets before the next arrival:
			// from "certainly held" to "probably finds the key free".
			for y := 0; y < i%8; y++ {
				runtime.Gosched()
			}
		}
		answered := make(chan struct{})
		go func() {
			wg.Wait()
			close(answered)
		}()
		select {
		case <-answered:
		case <-time.After(30 * time.Second):
			t.Fatal("accesses admitted and never answered: held for a round that will not return")
		}
		agg.Close()
		if len(backend.shared) != 0 {
			t.Fatalf("%d times the key was in two rounds at once", len(backend.shared))
		}
		next, alone := 0, 0
		for _, ops := range backend.rounds {
			if len(ops) == 1 {
				alone++
			}
			for _, op := range ops {
				if got := int(op.Value[0]) | int(op.Value[1])<<8; got != next {
					t.Fatalf("the backend saw access %d where %d was due: lost or overtaken", got, next)
				}
				next++
			}
		}
		if next != n {
			t.Fatalf("the backend saw %d accesses, want %d", next, n)
		}
		t.Logf("%d rounds, %d of one access", len(backend.rounds), alone)
	})

	// Dependent sequences through the real proxy: each key has a writer
	// that reads back what it last wrote and a reader that must never
	// see the key's value go backwards.
	t.Run("proxy", func(t *testing.T) {
		const keys, laps = 8, 6
		_, backend, agg := newAggRig(t, keys)
		agg.Instrument(obs.NewRegistry())
		close(backend.gate)
		go func() {
			for range backend.entered {
			}
		}()
		defer close(backend.entered)
		var writers, readers sync.WaitGroup
		done := make(chan struct{})
		for s := 0; s < keys; s++ {
			key := fmt.Sprintf("key-%02d", s)
			writers.Add(1)
			go func(s int) {
				defer writers.Done()
				want := byte(s)
				for lap := 0; lap < laps; lap++ {
					v, _, err := agg.Access(OpRead, key, nil)
					if err != nil || v[0] != want {
						t.Errorf("writer %d lap %d read %v, %v; want first byte %d", s, lap, v, err, want)
						return
					}
					want = byte(s + 16*(lap+1))
					if _, _, err := agg.Access(OpWrite, key, []byte{want, 0, 0, 0}); err != nil {
						t.Errorf("writer %d lap %d write: %v", s, lap, err)
						return
					}
				}
			}(s)
			readers.Add(1)
			go func(s int) {
				defer readers.Done()
				last := byte(s)
				for {
					select {
					case <-done:
						return
					default:
					}
					v, _, err := agg.Access(OpRead, key, nil)
					if err != nil || v[0] < last || (v[0]-byte(s))%16 != 0 {
						t.Errorf("reader %d read %v, %v after %d: values go s, s+16, s+32, … and never back", s, v, err, last)
						return
					}
					last = v[0]
				}
			}(s)
		}
		writers.Wait()
		close(done)
		readers.Wait()
		agg.Close()
		if len(backend.shared) != 0 {
			t.Errorf("keys %q were in two rounds at once", backend.shared)
		}
		if rejected := agg.rejected.Load(); rejected != 0 {
			t.Errorf("%d accesses rejected, want none", rejected)
		}
		// An access admitted while its key's round was returning must not
		// read as held for a negative time.
		assertAggStagesSum(t, agg, uint64(agg.accesses.Load()))
	})
}

// TestAggregatorBackpressure fills the pending budget — accesses in
// flight and, a quarter of them, held for one key, counted alike — and
// checks that the next arrival is rejected rather than queued, and that
// every admitted access still completes.
func TestAggregatorBackpressure(t *testing.T) {
	backend := &gatedBackend{entered: make(chan struct{}, 2*DefaultAggMaxPending), gate: make(chan struct{})}
	agg := NewAggregator(backend)
	var wg sync.WaitGroup
	for i := 0; i < DefaultAggMaxPending; i++ {
		key := "hot"
		if i%4 != 0 {
			key = fmt.Sprintf("k%d", i)
		}
		admitAfter(t, agg, &wg, OpRead, key, 0)
	}
	// The gate is shut, so the budget stays full.
	if _, _, err := agg.Access(OpRead, "overflow", nil); !errors.Is(err, ErrAggregatorOverloaded) {
		t.Fatalf("overflow access error = %v, want ErrAggregatorOverloaded", err)
	}
	if admitted, rejected := agg.accesses.Load(), agg.rejected.Load(); admitted != DefaultAggMaxPending || rejected != 1 {
		t.Errorf("%d admitted and %d rejected, want %d and 1", admitted, rejected, DefaultAggMaxPending)
	}

	close(backend.gate)
	wg.Wait() // every admitted access answers
	if _, _, err := agg.Access(OpRead, "after", nil); err != nil {
		t.Errorf("access once the budget has drained: %v", err)
	}
	agg.Close()
	if _, _, err := agg.Access(OpRead, "late", nil); !errors.Is(err, ErrAggregatorClosed) {
		t.Errorf("post-close access error = %v, want ErrAggregatorClosed", err)
	}
}

// TestAggregatorErrorIsolation puts a doomed access — a wrong-size write
// — inside a chain, and another — an unloaded key — in a round beside it:
// each fails by itself, the rest of the chain is applied and answered as
// if the bad member were not there, and the chain is still one round.
func TestAggregatorErrorIsolation(t *testing.T) {
	_, backend, agg := newAggRig(t, 2)
	var wg sync.WaitGroup
	doomed := func(op Op, key string, value []byte) *error {
		before, err := agg.accesses.Load(), new(error)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, *err = agg.Access(op, key, value)
		}()
		waitAdmitted(t, agg, before+1)
		return err
	}
	admitAfter(t, agg, &wg, OpRead, "key-00", 0)
	<-backend.entered // key-00 is in flight: what follows is its chain
	w := admitAfter(t, agg, &wg, OpWrite, "key-00", 7)
	badSize := doomed(OpWrite, "key-00", []byte{1, 2})
	rd := admitAfter(t, agg, &wg, OpRead, "key-00", 0)
	ghost := doomed(OpRead, "ghost", nil)
	<-backend.entered // rounds reach the backend on goroutines of their own: one at a time, so their order is known
	other := admitAfter(t, agg, &wg, OpRead, "key-01", 0)
	<-backend.entered
	close(backend.gate)
	wg.Wait()

	if !errors.Is(*badSize, ErrValueSize) {
		t.Errorf("wrong-size write error = %v, want ErrValueSize", *badSize)
	}
	if *ghost == nil {
		t.Error("ghost-key access succeeded, want error")
	}
	if (*w)[0] != 7 || (*rd)[0] != 7 || (*other)[0] != 1 {
		t.Errorf("good accesses answered %v %v %v, want first bytes 7 7 1", *w, *rd, *other)
	}
	want := []string{"key-00", "ghost", "key-01", "key-00=7 key-00=1 key-00"}
	if rounds := backend.roundKeys(); fmt.Sprint(rounds) != fmt.Sprint(want) {
		t.Errorf("rounds = %q, want %q", rounds, want)
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
// argument at the adversary's boundary: the server's view of an
// aggregated chain — k sessions' accesses to one key, held while the
// key's round was in flight and sent together — is identical to its view
// of a natural AccessBatch of the same k ops, and aggregated read chains
// are indistinguishable from aggregated write chains.
func TestObliviousnessAggregatedWindow(t *testing.T) {
	for _, k := range []int{1, 3, 6} {
		t.Run(fmt.Sprintf("chain=%d", k), func(t *testing.T) {
			// A round of one puts the key in flight; the k accesses admitted
			// behind it are the chain.
			aggregatedRun := func(t *testing.T, op Op) []exchange {
				r, backend, agg := newAggRig(t, 1)
				view := observe(r)
				var wg sync.WaitGroup
				admitAfter(t, agg, &wg, op, "key-00", 100)
				<-backend.entered
				for i := 0; i < k; i++ {
					admitAfter(t, agg, &wg, op, "key-00", byte(101+i))
				}
				close(backend.gate)
				wg.Wait()
				if rounds := agg.rounds.Load(); rounds != 2 {
					t.Errorf("the %d held sessions left in %d rounds, want 1", k, rounds-1)
				}
				return view.sorted()
			}
			naturalRun := func(t *testing.T) []exchange {
				r, proxy, _ := newLBL(t, LBLPointPermute, aggValueSize)
				loadData(t, r, proxy, map[string][]byte{"key-00": make([]byte, aggValueSize)})
				view := observe(r)
				for _, n := range []int{1, k} {
					ops := make([]BatchOp, n)
					for i := range ops {
						ops[i] = BatchOp{Op: OpRead, Key: "key-00"}
					}
					if _, _, err := proxy.AccessBatch(ops); err != nil {
						t.Fatal(err)
					}
				}
				return view.sorted()
			}

			aggReads := aggregatedRun(t, OpRead)
			aggWrites := aggregatedRun(t, OpWrite)
			natural := naturalRun(t)
			if len(natural) != 2 {
				t.Fatalf("the two natural batches crossed as %d exchanges, want 2", len(natural))
			}
			// Aggregated chain vs natural batch of the same ops: identical.
			assertIdenticalViews(t, aggReads, natural)
			// Aggregated reads vs aggregated writes: identical.
			assertIdenticalViews(t, aggReads, aggWrites)
		})
	}
}

// TestAggregatorSlowlogWindowMetadata checks what an aggregated access
// leaves behind: a slow-log entry that names the chain it rode (chain=N
// member=i) and reports the time it was held for its key as a stage of
// its own — key_wait, zero for an access that found its key free — beside
// batch_rpc, never folded into it; the two sum to the entry's total and,
// over all accesses, the stage histograms sum to ortoa_agg_access_seconds
// exactly.
// The aggregator holds no PRF, so its labels must carry no key material
// at all — neither the text of a plaintext key's prefix nor its hex —
// and point at the access through the trace id instead.
func TestAggregatorSlowlogWindowMetadata(t *testing.T) {
	const k = 3
	_, backend, agg := newAggRig(t, 1)
	reg := obs.NewRegistry()
	agg.Instrument(reg)
	tr := reg.Tracer("proxy", 64)
	agg.TraceWith(tr)

	var wg sync.WaitGroup
	admitAfter(t, agg, &wg, OpRead, "key-00", 0)
	<-backend.entered
	for i := 0; i < k; i++ {
		admitAfter(t, agg, &wg, OpRead, "key-00", 0)
	}
	close(backend.gate)
	wg.Wait()

	entries := reg.SlowLog("agg_access", 32).Entries()
	if len(entries) != 1+k {
		t.Fatalf("slowlog retained %d entries, want %d", len(entries), 1+k)
	}
	sessions := map[uint64]bool{}
	for _, rec := range tr.Snapshot() {
		sessions[rec.TraceID] = sessions[rec.TraceID] || rec.Name == "agg_session"
	}
	labels := map[string]bool{}
	for _, e := range entries {
		labels[e.Label] = true
		for _, leak := range []string{"key-", hex.EncodeToString([]byte("key-")), "ek="} {
			if strings.Contains(e.Label, leak) {
				t.Fatalf("entry label %q carries key material (%q): /slowlog must never show plaintext key bytes", e.Label, leak)
			}
		}
		if !sessions[e.TraceID] {
			t.Fatalf("entry %q carries trace id %016x, which resolves to no agg_session span", e.Label, e.TraceID)
		}
		if len(e.Stages) != 2 || e.Stages[0].Name != "key_wait" || e.Stages[1].Name != "batch_rpc" {
			t.Fatalf("entry %q has stages %+v, want key_wait and batch_rpc", e.Label, e.Stages)
		}
		if held := strings.HasPrefix(e.Label, fmt.Sprintf("chain=%d ", k)); held != (e.Stages[0].D > 0) {
			t.Errorf("entry %q was held for %v: only a chain's members wait for their key", e.Label, e.Stages[0].D)
		}
		if sum := e.Stages[0].D + e.Stages[1].D; sum != e.Total {
			t.Fatalf("entry %q stages sum to %v but total is %v: latency misattributed", e.Label, sum, e.Total)
		}
	}
	for _, want := range []string{"chain=1 member=0", "chain=3 member=0", "chain=3 member=1", "chain=3 member=2"} {
		if !labels[want] {
			t.Errorf("no entry labelled %q among %v", want, labels)
		}
	}
	assertAggStagesSum(t, agg, 1+k)
}

// assertAggStagesSum checks the stage clock's promise on agg's family:
// every stage was observed once per answered access, and the stages' sums
// add up to ortoa_agg_access_seconds' exactly.
func assertAggStagesSum(t *testing.T, agg *Aggregator, accesses uint64) {
	t.Helper()
	var sum time.Duration
	for i, name := range agg.stages.Names() {
		h := agg.stages.Histogram(i)
		if h.Count() != accesses {
			t.Errorf("stage %s has %d observations, want %d", name, h.Count(), accesses)
		}
		sum += h.Sum()
	}
	if e2e := agg.stages.Access(); e2e.Count() != accesses || e2e.Sum() != sum {
		t.Errorf("ortoa_agg_access_seconds: count %d sum %v, want %d and the stages' %v", e2e.Count(), e2e.Sum(), accesses, sum)
	}
}

// TestAggregatorHoldsBusyKey pins the per-key hold: while a key's round
// is in flight, accesses to it are held — no round carries them to queue
// on the key's counter — and accesses to other keys leave without
// waiting for it; when the round returns, everything held for the key
// leaves together, in the order it was admitted.
func TestAggregatorHoldsBusyKey(t *testing.T) {
	backend := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{}, 8)}
	agg := NewAggregator(backend)
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

// TestAggregatorNeverSharesAKey is the invariant behind the hold, under
// a workload where one key draws most of the traffic: no two in-flight
// rounds ever carry the same key, and every round carries one key only.
func TestAggregatorNeverSharesAKey(t *testing.T) {
	backend := &gatedBackend{entered: make(chan struct{}, 1<<12)}
	agg := NewAggregator(backend)
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
		for _, op := range ops {
			if op.Key != ops[0].Key {
				t.Fatalf("a round carried keys %q and %q: every aggregated round is one key's chain", ops[0].Key, op.Key)
			}
		}
		if len(ops) > 1 {
			chained++
		}
	}
	if chained == 0 {
		t.Error("no round carried the hot key more than once: the workload never exercised a chain")
	}
}

// TestAggregatorCloseAnswersHeld: Close returns only once every admitted
// access has its answer — those in flight by their rounds, those held
// for a key by the round that follows when the key comes back.
func TestAggregatorCloseAnswersHeld(t *testing.T) {
	backend := &gatedBackend{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	agg := NewAggregator(backend)
	var wg sync.WaitGroup
	admitAfter(t, agg, &wg, OpRead, "hot", 0)
	<-backend.entered // round 1: hot
	admitAfter(t, agg, &wg, OpWrite, "hot", 1)
	admitAfter(t, agg, &wg, OpWrite, "hot", 2)

	closed := make(chan struct{})
	go func() {
		agg.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with accesses in flight and held")
	case <-time.After(10 * time.Millisecond):
	}
	close(backend.gate)
	<-closed
	wg.Wait() // every access was answered without error
	want := []string{"hot", "hot=1 hot=2"}
	if rounds := backend.roundKeys(); fmt.Sprint(rounds) != fmt.Sprint(want) {
		t.Errorf("rounds = %q, want %q", rounds, want)
	}
	if _, _, err := agg.Access(OpRead, "late", nil); !errors.Is(err, ErrAggregatorClosed) {
		t.Errorf("post-close access error = %v, want ErrAggregatorClosed", err)
	}
}
