package core

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
)

// Tests of the hold on a busy key (counters.go, LBLProxy.lead): every one
// runs accesses through the real proxy against the real server, with the
// server's access handler behind a gate so that rounds can be kept in
// flight for as long as a test needs.

// holdValueSize is the value size of these tests' deployments, and of
// the writes start issues.
const holdValueSize = 4

// A roundGate stands in front of a rig's LBL access handler: it records
// each request's keys, ticks entered, holds the request until the test
// lets it through, and keeps the invariant the proxy owes its server — a
// key that two requests in flight name at once is recorded in shared.
type roundGate struct {
	names   map[string]string // encoded key → plaintext key
	per     int               // request bytes per access
	mu      sync.Mutex
	rounds  []string // one per request: its keys, space-separated
	busy    map[string]bool
	shared  []string
	entered chan struct{} // one tick per request arrival; buffered past any test's rounds, so that a test that does not count them never stalls the server
	gate    chan struct{} // one token, or its close, releases a request; nil never holds one
}

// gateRounds puts a roundGate in front of srv's access handler. keys are
// the plaintext keys the test will use, for the record of rounds to name.
func gateRounds(r *rig, proxy *LBLProxy, srv *LBLServer, gate chan struct{}, keys ...string) *roundGate {
	g := &roundGate{names: map[string]string{}, per: proxy.cfg.RequestBytesPerAccess(),
		busy: map[string]bool{}, entered: make(chan struct{}, 1<<14), gate: gate}
	for _, k := range keys {
		ek := proxy.prf.EncodeKey(k)
		g.names[string(ek[:])] = k
	}
	r.server.Handle(MsgLBLAccess, func(ctx context.Context, req []byte) ([]byte, error) {
		var mine []string
		for off := 0; off+g.per <= len(req); off += g.per {
			mine = append(mine, g.names[string(req[off:off+prf.Size])])
		}
		g.mu.Lock()
		g.rounds = append(g.rounds, strings.Join(mine, " "))
		for i, k := range mine {
			if g.busy[k] && (i == 0 || mine[i-1] != k) {
				g.shared = append(g.shared, k)
			}
			g.busy[k] = true
		}
		g.mu.Unlock()
		g.entered <- struct{}{}
		if g.gate != nil {
			<-g.gate
		}
		resp, err := srv.handleAccess(ctx, req)
		g.mu.Lock()
		for _, k := range mine {
			delete(g.busy, k)
		}
		g.mu.Unlock()
		return resp, err
	})
	return g
}

// seen returns the rounds recorded so far.
func (g *roundGate) seen() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.rounds...)
}

// newHoldRig builds an LBL deployment with n loaded keys ("key-00"…)
// whose value byte 0 is the key index, the proxy instrumented against a
// registry of its own, and a roundGate shut on gate in front of the
// server.
func newHoldRig(t *testing.T, n int, gate chan struct{}) (*rig, *LBLProxy, *roundGate) {
	t.Helper()
	r, proxy, srv := newLBL(t, LBLPointPermute, holdValueSize)
	proxy.Instrument(obs.NewRegistry())
	data := map[string][]byte{}
	keys := []string{"ghost"}
	for i := 0; i < n; i++ {
		v := make([]byte, holdValueSize)
		v[0] = byte(i)
		keys = append(keys, fmt.Sprintf("key-%02d", i))
		data[keys[i+1]] = v
	}
	loadData(t, r, proxy, data)
	return r, proxy, gateRounds(r, proxy, srv, gate, keys...)
}

// An admitCtx reports the first time it is asked for a value, which is
// when the proxy admits the access it was passed with: an access that
// finds its key busy looks for its caller's span as it joins the line,
// under the key's lock (counterEntry.take), and one that finds it free
// does as its round starts, the key already its own. Either way no later
// arrival can be ahead of it.
type admitCtx struct {
	context.Context
	once     sync.Once
	admitted chan struct{}
}

func (c *admitCtx) Value(key any) any {
	c.once.Do(func() { close(c.admitted) })
	return c.Context.Value(key)
}

// An answer is where start leaves an access's outcome, before it closes
// done.
type answer struct {
	value []byte
	err   error
	done  chan struct{}
}

// start runs one access on a goroutine of its own, under ctx, and
// returns once the proxy has admitted it, so a test can fix the order
// accesses are admitted in. With must set the access has to succeed.
func start(t *testing.T, ctx context.Context, proxy *LBLProxy, wg *sync.WaitGroup, must bool, op Op, key string, value []byte) *answer {
	t.Helper()
	ac := &admitCtx{Context: ctx, admitted: make(chan struct{})}
	got := &answer{done: make(chan struct{})}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(got.done)
		got.value, _, got.err = proxy.AccessContext(ac, op, key, value)
		if must && got.err != nil {
			t.Errorf("access %s %s: %v", op, key, got.err)
		}
		ac.once.Do(func() { close(ac.admitted) }) // rejected before admission
	}()
	<-ac.admitted
	return got
}

// admit is start for an access that must succeed: a read, or a write of
// {tag, 0, 0, 0}.
func admit(t *testing.T, proxy *LBLProxy, wg *sync.WaitGroup, op Op, key string, tag byte) *answer {
	t.Helper()
	var value []byte
	if op == OpWrite {
		value = []byte{tag, 0, 0, 0}
	}
	return start(t, context.Background(), proxy, wg, true, op, key, value)
}

// held returns how many accesses are in line for key.
func held(proxy *LBLProxy, key string) int {
	e := proxy.counters.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.held)
}

// TestHeldAccessesLeaveAsOneChain checks the core promise: sessions on
// distinct keys never wait for each other — n keys are n rounds in flight
// at once — and sessions that arrive for a key while its round is in
// flight leave together, as one chain in one server RPC, applied in the
// order they were admitted, each session getting its own answer.
func TestHeldAccessesLeaveAsOneChain(t *testing.T) {
	const n = 8
	gate := make(chan struct{})
	r, proxy, g := newHoldRig(t, n, gate)
	view := observe(r)
	var wg sync.WaitGroup
	first := make([]*answer, n)
	for i := range first {
		first[i] = admit(t, proxy, &wg, OpRead, fmt.Sprintf("key-%02d", i), 0)
	}
	for i := 0; i < n; i++ {
		<-g.entered // the gate is shut: all n rounds are in flight together
	}
	w1 := admit(t, proxy, &wg, OpWrite, "key-00", 41)
	rd := admit(t, proxy, &wg, OpRead, "key-00", 0)
	w2 := admit(t, proxy, &wg, OpWrite, "key-00", 42)
	if rounds := g.seen(); len(rounds) != n {
		t.Fatalf("rounds while key-00 is in flight = %q, want %d: held accesses must not be sent", rounds, n)
	}
	close(gate)
	wg.Wait()

	for i, a := range first {
		if a.value[0] != byte(i) {
			t.Errorf("session %d read %v, want first byte %d", i, a.value, i)
		}
	}
	if w1.value[0] != 41 || rd.value[0] != 41 || w2.value[0] != 42 {
		t.Errorf("chain answered %v %v %v, want 41 41 42: members apply in admission order", w1.value, rd.value, w2.value)
	}
	rounds := g.seen()
	if len(rounds) != n+1 || rounds[n] != "key-00 key-00 key-00" {
		t.Errorf("rounds = %q, want %d rounds of one and the chain key-00 key-00 key-00", rounds, n)
	}
	if rpcs := len(view.sorted()); rpcs != n+1 {
		t.Errorf("server answered %d RPCs, want %d: the chain of three costs one", rpcs, n+1)
	}
	if accesses, rounds := proxy.mx.keys.Value(), proxy.stages.Access().Count(); accesses != n+3 || rounds != n+1 {
		t.Errorf("counted %d accesses in %d rounds, want %d in %d", accesses, rounds, n+3, n+1)
	}
	if v, _, err := proxy.Access(OpRead, "key-00", nil); err != nil || v[0] != 42 {
		t.Errorf("key-00 after the chain reads %v, %v; want the last write's 42", v, err)
	}
}

// TestHoldArrivalRacesRoundReturn is the hold's main concurrency test;
// run it under -race. The one race the design has is an arrival for a key
// against that key's round returning: the arrival must either be part of
// what the return sends next or find the key free and leave by itself —
// never wait in a line no one will serve, never overtake an access
// admitted before it, never put two rounds on the key.
func TestHoldArrivalRacesRoundReturn(t *testing.T) {
	// One key over loopback, so every round returns about when the next
	// access arrives; accesses admitted one by one without waiting for
	// answers, writes carrying their place in the order and each read
	// expecting what the write admitted just before it wrote.
	t.Run("in order", func(t *testing.T) {
		const n = 2000
		_, proxy, g := newHoldRig(t, 1, nil)
		var wg sync.WaitGroup
		answers := make([]*answer, n+1)
		for i := 1; i <= n; i++ {
			op, value := OpWrite, []byte{byte(i), byte(i >> 8), 0, 0}
			if i%2 == 1 {
				op, value = OpRead, nil
			}
			answers[i] = start(t, context.Background(), proxy, &wg, true, op, "key-00", value)
			// Vary what the next arrival meets: a round in flight (it is
			// held), the line just emptied (it races the chain leaving, or
			// coming back), or the last answer just delivered (it races the
			// key being given up, or finds it free).
			switch i % 3 {
			case 1:
				for held(proxy, "key-00") > 0 {
					runtime.Gosched()
				}
			case 2:
				<-answers[i-1].done
			}
		}
		answered := make(chan struct{})
		go func() {
			wg.Wait()
			close(answered)
		}()
		select {
		case <-answered:
		case <-time.After(60 * time.Second):
			t.Fatal("accesses admitted and never answered: held for a round that will not return")
		}
		if len(g.shared) != 0 {
			t.Fatalf("%d times the key was in two rounds at once", len(g.shared))
		}
		for i := 1; i <= n && !t.Failed(); i += 2 {
			if v := answers[i].value; int(v[0])|int(v[1])<<8 != i-1 {
				t.Fatalf("read %d saw %v, want what write %d wrote: lost or overtaken", i, v, i-1)
			}
		}
		rounds, alone := g.seen(), 0
		for _, keys := range rounds {
			if keys == "key-00" {
				alone++
			}
		}
		t.Logf("%d rounds, %d of one access", len(rounds), alone)
	})

	// Dependent sequences: each key has a writer that reads back what it
	// last wrote and a reader that must never see the key's value go
	// backwards.
	t.Run("sessions", func(t *testing.T) {
		const keys, laps = 8, 6
		_, proxy, g := newHoldRig(t, keys, nil)
		var writers, readers sync.WaitGroup
		done := make(chan struct{})
		for s := 0; s < keys; s++ {
			key := fmt.Sprintf("key-%02d", s)
			writers.Add(1)
			go func(s int) {
				defer writers.Done()
				want := byte(s)
				for lap := 0; lap < laps; lap++ {
					v, _, err := proxy.Access(OpRead, key, nil)
					if err != nil || v[0] != want {
						t.Errorf("writer %d lap %d read %v, %v; want first byte %d", s, lap, v, err, want)
						return
					}
					want = byte(s + 16*(lap+1))
					if _, _, err := proxy.Access(OpWrite, key, []byte{want, 0, 0, 0}); err != nil {
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
					v, _, err := proxy.Access(OpRead, key, nil)
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
		if len(g.shared) != 0 {
			t.Errorf("keys %q were in two rounds at once", g.shared)
		}
		// An access admitted while its key's round was returning must not
		// read as held for a negative time.
		assertSessionStagesSum(t, proxy, uint64(proxy.mx.keys.Value()))
	})
}

// TestHoldErrorIsolation: a doomed access never costs another its answer.
// A malformed write to a busy key fails at once, by itself, and is never
// held; an unloaded key fails in a round of its own while the busy key's
// chain and another key's round go through.
func TestHoldErrorIsolation(t *testing.T) {
	gate := make(chan struct{})
	_, proxy, g := newHoldRig(t, 2, gate)
	var wg sync.WaitGroup
	admit(t, proxy, &wg, OpRead, "key-00", 0)
	<-g.entered // key-00 is in flight: what follows is its chain
	w := admit(t, proxy, &wg, OpWrite, "key-00", 7)
	if _, _, err := proxy.Access(OpWrite, "key-00", []byte{1, 2}); !errors.Is(err, ErrValueSize) {
		t.Errorf("wrong-size write to a busy key: %v, want ErrValueSize at once", err)
	}
	rd := admit(t, proxy, &wg, OpRead, "key-00", 0)
	ghost := start(t, context.Background(), proxy, &wg, false, OpRead, "ghost", nil)
	<-g.entered
	other := admit(t, proxy, &wg, OpRead, "key-01", 0)
	<-g.entered
	close(gate)
	wg.Wait()

	if ghost.err == nil {
		t.Error("ghost-key access succeeded, want error")
	}
	if w.value[0] != 7 || rd.value[0] != 7 || other.value[0] != 1 {
		t.Errorf("good accesses answered %v %v %v, want first bytes 7 7 1", w.value, rd.value, other.value)
	}
	want := []string{"key-00", "ghost", "key-01", "key-00 key-00"}
	if rounds := g.seen(); fmt.Sprint(rounds) != fmt.Sprint(want) {
		t.Errorf("rounds = %q, want %q", rounds, want)
	}
}

// TestObliviousnessHeldChain checks the hold's security argument at the
// adversary's boundary: the server's view of a held chain — k sessions'
// accesses to one key, held while the key's round was in flight and sent
// together — is identical to its view of a natural AccessBatch of the
// same k ops, and read chains are indistinguishable from write chains.
func TestObliviousnessHeldChain(t *testing.T) {
	for _, k := range []int{1, 3, 6} {
		t.Run(fmt.Sprintf("chain=%d", k), func(t *testing.T) {
			// A round of one puts the key in flight; the k accesses admitted
			// behind it are the chain.
			heldRun := func(t *testing.T, op Op) []exchange {
				gate := make(chan struct{})
				r, proxy, g := newHoldRig(t, 1, gate)
				view := observe(r)
				var wg sync.WaitGroup
				admit(t, proxy, &wg, op, "key-00", 100)
				<-g.entered
				for i := 0; i < k; i++ {
					admit(t, proxy, &wg, op, "key-00", byte(101+i))
				}
				close(gate)
				wg.Wait()
				if rounds := g.seen(); len(rounds) != 2 {
					t.Errorf("the %d held sessions left in %d rounds, want 1", k, len(rounds)-1)
				}
				return view.sorted()
			}
			naturalRun := func(t *testing.T) []exchange {
				r, proxy, _ := newLBL(t, LBLPointPermute, holdValueSize)
				loadData(t, r, proxy, map[string][]byte{"key-00": make([]byte, holdValueSize)})
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

			heldReads := heldRun(t, OpRead)
			heldWrites := heldRun(t, OpWrite)
			natural := naturalRun(t)
			if len(natural) != 2 {
				t.Fatalf("the two natural batches crossed as %d exchanges, want 2", len(natural))
			}
			// Held chain vs natural batch of the same ops: identical.
			assertIdenticalViews(t, heldReads, natural)
			// Held reads vs held writes: identical.
			assertIdenticalViews(t, heldReads, heldWrites)
		})
	}
}

// TestHoldSlowlogMetadata checks what a single access leaves behind: a
// slow-log entry that names the chain it rode (chain=N member=i) and
// reports the time it was held for its key as a stage of its own —
// key_wait, zero exactly for an access that found its key free — beside
// batch_rpc, never folded into it; the two sum to the entry's total and,
// over all accesses, the stage histograms sum to ortoa_agg_access_seconds
// exactly. The label carries no key material at all — neither the text
// of a plaintext key's prefix nor its hex — and the entry points at the
// access through its request's trace id, under which a held access's
// wait is a key_wait span.
func TestHoldSlowlogMetadata(t *testing.T) {
	const k = 3
	gate := make(chan struct{})
	r, proxy, srv := newLBL(t, LBLPointPermute, holdValueSize)
	reg := obs.NewRegistry()
	proxy.Instrument(reg)
	tr := reg.Tracer("proxy", 64)
	loadData(t, r, proxy, map[string][]byte{"key-00": make([]byte, holdValueSize)})
	g := gateRounds(r, proxy, srv, gate, "key-00")

	// Each access arrives under a span of its own, as a front end's do.
	var wg sync.WaitGroup
	requests := map[uint64]bool{}
	request := func() {
		sp := tr.StartRoot("server_handle")
		requests[sp.TraceID()] = true
		start(t, trace.ContextWith(context.Background(), sp), proxy, &wg, true, OpRead, "key-00", nil)
	}
	request()
	<-g.entered
	for i := 0; i < k; i++ {
		request()
	}
	close(gate)
	wg.Wait()

	entries := reg.SlowLog("agg_access", 32).Entries()
	if len(entries) != 1+k {
		t.Fatalf("slowlog retained %d entries, want %d", len(entries), 1+k)
	}
	waited := map[uint64]bool{}
	for _, rec := range tr.Snapshot() {
		waited[rec.TraceID] = waited[rec.TraceID] || rec.Name == "key_wait"
	}
	labels := map[string]bool{}
	for _, e := range entries {
		labels[e.Label] = true
		for _, leak := range []string{"key-", hex.EncodeToString([]byte("key-")), "ek="} {
			if strings.Contains(e.Label, leak) {
				t.Fatalf("entry label %q carries key material (%q): /slowlog must never show plaintext key bytes", e.Label, leak)
			}
		}
		if !requests[e.TraceID] {
			t.Fatalf("entry %q carries trace id %016x, which is no request's", e.Label, e.TraceID)
		}
		if len(e.Stages) != 2 || e.Stages[0].Name != "key_wait" || e.Stages[1].Name != "batch_rpc" {
			t.Fatalf("entry %q has stages %+v, want key_wait and batch_rpc", e.Label, e.Stages)
		}
		wasHeld := strings.HasPrefix(e.Label, fmt.Sprintf("chain=%d ", k))
		if wasHeld != (e.Stages[0].D > 0) || wasHeld != waited[e.TraceID] {
			t.Errorf("entry %q was held for %v (key_wait span: %v): only a chain's members wait for their key", e.Label, e.Stages[0].D, waited[e.TraceID])
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
	assertSessionStagesSum(t, proxy, 1+k)
	if chains := proxy.mx.chainLen; chains.Count() != 2 || chains.Sum() != time.Duration(1+k) {
		t.Errorf("ortoa_agg_chain_accesses: %d chains carrying %d accesses, want 2 carrying %d", chains.Count(), chains.Sum(), 1+k)
	}
}

// assertSessionStagesSum checks the stage clock's promise on the
// per-caller family: every stage was observed once per answered access,
// and the stages' sums add up to ortoa_agg_access_seconds' exactly.
func assertSessionStagesSum(t *testing.T, proxy *LBLProxy, accesses uint64) {
	t.Helper()
	var sum time.Duration
	for i, name := range proxy.sessions.Names() {
		h := proxy.sessions.Histogram(i)
		if h.Count() != accesses {
			t.Errorf("stage %s has %d observations, want %d", name, h.Count(), accesses)
		}
		sum += h.Sum()
	}
	if e2e := proxy.sessions.Access(); e2e.Count() != accesses || e2e.Sum() != sum {
		t.Errorf("ortoa_agg_access_seconds: count %d sum %v, want %d and the stages' %v", e2e.Count(), e2e.Sum(), accesses, sum)
	}
}

// TestHoldsBusyKey pins the per-key hold: while a key's round is in
// flight, accesses to it are held — no round carries them to queue on the
// key's counter — and accesses to other keys leave without waiting for
// it; when the round returns, everything held for the key leaves
// together, in the order it was admitted.
func TestHoldsBusyKey(t *testing.T) {
	gate := make(chan struct{}, 8)
	_, proxy, g := newHoldRig(t, 2, gate)
	var wg sync.WaitGroup
	admit(t, proxy, &wg, OpRead, "key-00", 0)
	<-g.entered // round 1 holds key-00 in flight
	w1 := admit(t, proxy, &wg, OpWrite, "key-00", 1)
	w2 := admit(t, proxy, &wg, OpWrite, "key-00", 2)
	admit(t, proxy, &wg, OpRead, "key-01", 0)
	<-g.entered // key-01 left at once: it waits for no one's key
	rd := admit(t, proxy, &wg, OpRead, "key-00", 0)
	w3 := admit(t, proxy, &wg, OpWrite, "key-00", 3)
	if rounds := g.seen(); len(rounds) != 2 {
		t.Fatalf("rounds while key-00 is in flight = %q, want [key-00 key-01]: held accesses must not be sent", rounds)
	}
	gate <- struct{}{} // round 1 returns; nothing says which of the two the token reaches first
	gate <- struct{}{}
	<-g.entered // the held chain
	gate <- struct{}{}
	wg.Wait()
	want := []string{"key-00", "key-01", "key-00 key-00 key-00 key-00"}
	if rounds := g.seen(); fmt.Sprint(rounds) != fmt.Sprint(want) {
		t.Errorf("rounds = %q, want %q", rounds, want)
	}
	if w1.value[0] != 1 || w2.value[0] != 2 || rd.value[0] != 2 || w3.value[0] != 3 {
		t.Errorf("chain answered %v %v %v %v, want 1 2 2 3: members apply in admission order", w1.value, w2.value, rd.value, w3.value)
	}
	if len(g.shared) != 0 {
		t.Errorf("keys %q were in two rounds at once", g.shared)
	}
}

// TestHoldNeverSharesAKey is the invariant behind the hold, under a
// workload where one key draws most of the traffic: no two in-flight
// rounds ever carry the same key, and every round carries one key only.
func TestHoldNeverSharesAKey(t *testing.T) {
	const sessions, laps = 16, 40
	_, proxy, g := newHoldRig(t, sessions, nil)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for lap := 0; lap < laps; lap++ {
				key := "key-00"
				if (s+lap)%4 == 0 && s > 0 {
					key = fmt.Sprintf("key-%02d", s)
				}
				if _, _, err := proxy.Access(OpRead, key, nil); err != nil {
					t.Errorf("session %d access %d: %v", s, lap, err)
					return
				}
				runtime.Gosched()
			}
		}(s)
	}
	wg.Wait()
	if len(g.shared) != 0 {
		t.Fatalf("%d times a key was in two rounds at once (first: %q)", len(g.shared), g.shared[0])
	}
	chained := 0
	for _, round := range g.seen() {
		keys := strings.Fields(round)
		for _, k := range keys {
			if k != keys[0] {
				t.Fatalf("a round carried keys %q: every round of single accesses is one key's chain", round)
			}
		}
		if len(keys) > 1 {
			chained++
		}
	}
	if chained == 0 {
		t.Error("no round carried the hot key more than once: the workload never exercised a chain")
	}
}

// TestBatchNotStarvedByHotKey: a multi-key round waits in the same line
// as everything else that wants a key, so however many sessions keep one
// of its keys hot it owns that key after at most what was ahead of it —
// the round in flight and one chain — and never waits behind later
// arrivals.
func TestBatchNotStarvedByHotKey(t *testing.T) {
	const sessions, batches = 16, 20
	_, proxy, g := newHoldRig(t, 2, nil)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := proxy.Access(OpRead, "key-01", nil); err != nil {
					t.Errorf("hot session: %v", err)
					return
				}
			}
		}()
	}
	defer func() { // the sessions stop before the test returns, however it returns
		close(done)
		wg.Wait()
		if len(g.shared) != 0 {
			t.Errorf("keys %q were in two rounds at once", g.shared)
		}
	}()
	hotRounds := func() (n int) {
		for _, round := range g.seen() {
			if strings.HasSuffix(round, "key-01") {
				n++
			}
		}
		return n
	}
	for len(g.seen()) < sessions { // the key is hot
		runtime.Gosched()
	}
	for b := 0; b < batches; b++ {
		before := hotRounds()
		values, _, err := proxy.AccessBatch([]BatchOp{{Op: OpRead, Key: "key-00"}, {Op: OpRead, Key: "key-01"}})
		waited := hotRounds() - before
		if err != nil || values[0][0] != 0 || values[1][0] != 1 {
			t.Fatalf("batch %d: %v, %v", b, values, err)
		}
		// The round in flight when the batch arrived, the chain that was in
		// line ahead of it, its own round, and at most the one the next
		// leader has sent by the time the count is read.
		if waited > 4 {
			t.Fatalf("batch %d completed after %d rounds on its hot key, want at most 4", b, waited)
		}
	}
}
