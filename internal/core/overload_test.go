package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

// Overload-path tests (DESIGN.md §15): deadline budgets dropping work
// before it costs trial decryptions or table builds, the aggregator
// shedding expired waiters, and the router's busy breaker.

// TestExpiredRoundSlot: a request whose deadline has already passed is
// answered slot by slot with slotExpired — before the fence, before any
// trial decryption — and leaves the record untouched.
func TestExpiredRoundSlot(t *testing.T) {
	srv, req := seededLBLServer(t)
	before, _ := srv.store.Get(string(req[:prf.Size]))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	resp, err := srv.handleAccess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != slotExpired || !bytes.Equal(resp[1:], make([]byte, len(resp)-1)) {
		t.Fatalf("expired round answered status %d with a non-zero body", resp[0])
	}
	if !IsDeadlineExpired(slotError(resp[0])) {
		t.Error("IsDeadlineExpired(slotError(slotExpired)) = false")
	}
	if got := srv.expiredRounds.Load(); got != 1 {
		t.Errorf("expiredRounds = %d, want 1", got)
	}
	if got := srv.DecryptAttempts(); got != 0 {
		t.Errorf("expired round cost %d trial decryptions", got)
	}
	if after, _ := srv.store.Get(string(req[:prf.Size])); !bytes.Equal(before, after) {
		t.Error("expired round changed the record")
	}
	// The same request with time to spare executes.
	if resp, err := srv.handleAccess(context.Background(), req); err != nil || resp[0] != slotOK {
		t.Fatalf("fresh ctx: status %v, err %v", resp, err)
	}
}

// TestIsDeadlineExpiredClassification pins that both expiry markers —
// the server's pre-decrypt drop and the proxy's pre-build drop —
// classify locally, wrapped, and after the handler-error flattening a
// relayed hop applies (RemoteError with the marker embedded).
func TestIsDeadlineExpiredClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"server marker", errExpiredRound, true},
		{"proxy marker", errDeadlineBeforeBuild, true},
		{"wrapped server marker", fmt.Errorf("access %q: %w", "k", errExpiredRound), true},
		{"relayed server marker", &transport.RemoteError{Msg: "proxy hop: " + expiredRoundMarker}, true},
		{"relayed proxy marker", &transport.RemoteError{Msg: "proxy hop: " + expiredBuildMarker}, true},
		{"plain remote error", &transport.RemoteError{Msg: "unknown key"}, false},
		{"busy rejection", &transport.BusyError{}, false},
		{"generic error", errors.New("deadline-ish but unrelated"), false},
		{"ctx deadline", context.DeadlineExceeded, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsDeadlineExpired(tc.err); got != tc.want {
				t.Errorf("IsDeadlineExpired = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestAccessExpiredBeforeBuild: an access whose deadline already
// passed is dropped before the proxy builds a table — nothing goes on
// the wire, the label schedule is untouched, and the next access works.
func TestAccessExpiredBeforeBuild(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 4)
	loadData(t, r, proxy, map[string][]byte{"k": {9, 9, 9, 9}})

	callsBefore := r.client.Stats().Calls
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	_, _, err := proxy.AccessContext(ctx, OpRead, "k", nil)
	if !IsDeadlineExpired(err) {
		t.Fatalf("err = %v, want deadline-expired", err)
	}
	if got := r.client.Stats().Calls; got != callsBefore {
		t.Errorf("calls went from %d to %d; expired access must not reach the wire", callsBefore, got)
	}
	// The drop left no parked round: a fresh access succeeds.
	got, _, err := proxy.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatalf("access after expired drop: %v", err)
	}
	if !bytes.Equal(got, []byte{9, 9, 9, 9}) {
		t.Errorf("read = %v", got)
	}
}

// TestServerDropsExpiredRound holds an LBL access in the server's
// admission queue past its deadline budget (ShedExpired off, so it
// still runs) and checks the server drops it at checkBudget — before
// any trial decryption — and that the proxy recovers the round through
// the dedup replay: the next access resolves the parked round as
// definitively-not-applied and succeeds.
func TestServerDropsExpiredRound(t *testing.T) {
	r, proxy, srv := newLBL(t, LBLPointPermute, 4)
	loadData(t, r, proxy, map[string][]byte{"k": {1, 2, 3, 4}})

	// One slot, occupied by a gated raw call, so the access queues.
	const msgOccupy = 0xEE
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	r.server.Handle(msgOccupy, func(context.Context, []byte) ([]byte, error) {
		entered <- struct{}{}
		<-gate
		return nil, nil
	})
	r.server.LimitAdmission(transport.AdmissionConfig{MaxInflight: 1, MaxQueue: 2})

	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		r.client.Call(msgOccupy, nil)
	}()
	<-entered

	// 15ms of budget, then 40ms stuck in queue: the handler finally
	// runs with its rehydrated deadline already passed.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, _, err := proxy.AccessContext(ctx, OpRead, "k", nil); err == nil {
		t.Fatal("expired access succeeded")
	}
	time.Sleep(40 * time.Millisecond)
	close(gate)
	<-occupied

	deadline := time.Now().Add(5 * time.Second)
	for srv.expiredRounds.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never dropped the expired round")
		}
		time.Sleep(time.Millisecond)
	}

	// The dropped round was never applied; the proxy's ambiguity
	// resolution (dedup replay under the original request id) must
	// conclude exactly that and leave the key readable.
	got, _, err := proxy.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatalf("access after expired round: %v", err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("read after expired round = %v, want original value", got)
	}
	if got := srv.expiredRounds.Load(); got != 1 {
		t.Errorf("expiredRounds = %d, want 1", got)
	}
}

// gatedBackend is a BatchAccessor whose round trips block on gate,
// recording each round's operations — a stand-in proxy for aggregator
// tests that need rounds held in flight deterministically. It also
// keeps the invariant the aggregator owes a real proxy: a key two
// rounds hold at once is recorded in shared. With inner set the rounds
// it lets through are executed there; otherwise it answers them itself.
type gatedBackend struct {
	inner   BatchAccessor
	mu      sync.Mutex
	rounds  [][]BatchOp
	busy    map[string]bool
	shared  []string
	entered chan struct{} // one tick per round arrival
	gate    chan struct{} // one token, or its close, releases a round; nil never holds one
}

func (b *gatedBackend) AccessBatchResults(ctx context.Context, ops []BatchOp) ([]BatchResult, AccessStats) {
	b.mu.Lock()
	b.rounds = append(b.rounds, append([]BatchOp(nil), ops...))
	if b.busy == nil {
		b.busy = map[string]bool{}
	}
	mine := map[string]bool{}
	for _, op := range ops {
		if b.busy[op.Key] && !mine[op.Key] {
			b.shared = append(b.shared, op.Key)
		}
		b.busy[op.Key], mine[op.Key] = true, true
	}
	b.mu.Unlock()
	b.entered <- struct{}{}
	if b.gate != nil {
		<-b.gate
	}
	var res []BatchResult
	if b.inner != nil {
		res, _ = b.inner.AccessBatchResults(ctx, ops)
	} else {
		res = make([]BatchResult, len(ops))
		for i := range res {
			res[i] = BatchResult{Value: []byte{byte(i)}}
		}
	}
	b.mu.Lock()
	for key := range mine {
		delete(b.busy, key)
	}
	b.mu.Unlock()
	return res, AccessStats{}
}

// roundKeys renders the rounds seen so far, one string per round: each
// op's key, followed by its first value byte if it is a write.
func (b *gatedBackend) roundKeys() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, ops := range b.rounds {
		var sb strings.Builder
		for i, op := range ops {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(op.Key)
			if op.Op == OpWrite {
				fmt.Fprintf(&sb, "=%d", op.Value[0])
			}
		}
		out = append(out, sb.String())
	}
	return out
}

// TestAggregatorShedsExpiredWaiter: a waiter whose deadline passes
// before its round leaves is answered unsent — the round that goes out
// carries only live accesses — and a key whose every waiter expired is
// free again.
func TestAggregatorShedsExpiredWaiter(t *testing.T) {
	expiring := func(agg *Aggregator, key string, err *error, wg *sync.WaitGroup) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			_, _, *err = agg.AccessContext(ctx, OpRead, key, nil)
		}()
	}
	// hotInFlight returns an aggregator whose key "hot" has a round held
	// in flight at the backend's gate.
	hotInFlight := func(t *testing.T, wg *sync.WaitGroup) (*gatedBackend, *Aggregator) {
		backend := &gatedBackend{entered: make(chan struct{}, 4), gate: make(chan struct{})}
		agg := NewAggregator(backend)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := agg.Access(OpRead, "hot", nil); err != nil {
				t.Errorf("first access: %v", err)
			}
		}()
		<-backend.entered
		return backend, agg
	}

	t.Run("held", func(t *testing.T) {
		var wg sync.WaitGroup
		backend, agg := hotInFlight(t, &wg)
		var expiredErr, liveErr error
		expiring(agg, "hot", &expiredErr, &wg)
		waitAdmitted(t, agg, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, liveErr = agg.Access(OpRead, "hot", nil)
		}()
		waitAdmitted(t, agg, 3)
		time.Sleep(10 * time.Millisecond) // the held access's deadline passes
		close(backend.gate)
		wg.Wait()
		if liveErr != nil {
			t.Errorf("live held access: %v", liveErr)
		}
		if !IsDeadlineExpired(expiredErr) {
			t.Errorf("expired held access err = %v, want deadline-expired", expiredErr)
		}
		if expired := agg.expired.Load(); expired != 1 {
			t.Errorf("expired = %d, want 1", expired)
		}
		if rounds := backend.roundKeys(); len(rounds) != 2 || rounds[1] != "hot" {
			t.Errorf("rounds = %q, want [hot hot]: the expired held access is shed, the live one follows alone", rounds)
		}
	})

	// A chain whose every waiter expired sends nothing, and must not
	// leave its key marked in flight: the next access to it would be held
	// for a round that never returns.
	t.Run("whole chain", func(t *testing.T) {
		var wg sync.WaitGroup
		backend, agg := hotInFlight(t, &wg)
		var expiredErr error
		expiring(agg, "hot", &expiredErr, &wg)
		waitAdmitted(t, agg, 2)
		time.Sleep(10 * time.Millisecond)
		close(backend.gate)
		wg.Wait()
		if !IsDeadlineExpired(expiredErr) {
			t.Fatalf("expired waiter err = %v, want deadline-expired", expiredErr)
		}
		if _, _, err := agg.Access(OpRead, "hot", nil); err != nil {
			t.Fatalf("access after the all-expired chain: %v", err)
		}
		if rounds := backend.roundKeys(); len(rounds) != 2 {
			t.Errorf("rounds = %q, want [hot hot]", rounds)
		}
	})

	// An access that arrives already expired is a round of one whose only
	// waiter is shed: same outcome, same free key.
	t.Run("arrival", func(t *testing.T) {
		backend := &gatedBackend{entered: make(chan struct{}, 1)}
		agg := NewAggregator(backend)
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if _, _, err := agg.AccessContext(ctx, OpRead, "k", nil); !IsDeadlineExpired(err) {
			t.Fatalf("expired arrival err = %v, want deadline-expired", err)
		}
		if _, _, err := agg.Access(OpRead, "k", nil); err != nil {
			t.Fatalf("access after the expired arrival: %v", err)
		}
		if expired := agg.expired.Load(); expired != 1 {
			t.Errorf("expired = %d, want 1", expired)
		}
		if rounds := backend.roundKeys(); len(rounds) != 1 || rounds[0] != "k" {
			t.Errorf("rounds = %q, want [k]", rounds)
		}
	})
}

// TestRouterBusyBreaker: consecutive busy rejections bench a member
// behind fail-fast busies — no wire traffic — and the first access
// after the retry-after window is the readmission probe. The member is
// never evicted from the ring (benching must not move range ownership).
func TestRouterBusyBreaker(t *testing.T) {
	const retryAfter = 60 * time.Millisecond
	s := transport.NewServer()
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.Handle(MsgClientAccess, func(context.Context, []byte) ([]byte, error) {
		entered <- struct{}{}
		<-gate
		return nil, errors.New("occupier done")
	})
	s.LimitAdmission(transport.AdmissionConfig{MaxInflight: 1, MaxQueue: 0, RetryAfter: retryAfter})
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	t.Cleanup(func() { close(gate) })

	// Occupy the single admission slot so every routed access sheds.
	raw, err := transport.Dial(l.Dial, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	go raw.Call(MsgClientAccess, []byte("occupy"))
	<-entered

	router, err := NewRouter([]RouterMember{{Name: "p0", Dial: l.Dial}}, RouterOptions{
		Client:      transport.Options{PoolSize: 1, Retry: transport.RetryPolicy{Attempts: 1}},
		BusyBreaker: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	// Two busy rejections trip the breaker.
	for i := 0; i < 2; i++ {
		_, _, err := router.Access(OpRead, "k", nil)
		if !transport.IsBusy(err) || transport.Ambiguous(err) {
			t.Fatalf("access %d: err = %v, want definite busy", i, err)
		}
	}
	shedsAtTrip := s.AdmissionStats().Shed

	// Benched: accesses fail fast with busy and produce no wire traffic.
	_, _, err = router.Access(OpRead, "k", nil)
	var be *transport.BusyError
	if !errors.As(err, &be) {
		t.Fatalf("benched access err = %v, want *BusyError", err)
	}
	if be.RetryAfter <= 0 || be.RetryAfter > retryAfter {
		t.Errorf("benched RetryAfter = %v, want within (0, %v]", be.RetryAfter, retryAfter)
	}
	if got := s.AdmissionStats().Shed; got != shedsAtTrip {
		t.Errorf("server sheds moved %d -> %d during bench; benched access must not reach the wire", shedsAtTrip, got)
	}

	// After the window the next access is the readmission probe: it
	// reaches the (still saturated) server again.
	time.Sleep(retryAfter + 20*time.Millisecond)
	_, _, err = router.Access(OpRead, "k", nil)
	if !transport.IsBusy(err) {
		t.Fatalf("probe access err = %v, want busy (server still saturated)", err)
	}
	if got := s.AdmissionStats().Shed; got != shedsAtTrip+1 {
		t.Errorf("server sheds after probe = %d, want %d (probe must reach the wire)", got, shedsAtTrip+1)
	}
}
