package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

// Overload-path tests (DESIGN.md §15): deadline budgets dropping work
// before it costs trial decryptions or table builds, a hold shedding
// the held accesses that expired, and the router's busy breaker.

// TestExpiredRoundSlot: a request whose deadline has already passed is
// answered slot by slot with slotExpired — before any record work or
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
	_, err := proxy.AccessContext(ctx, OpRead, "k", nil)
	if !IsDeadlineExpired(err) {
		t.Fatalf("err = %v, want deadline-expired", err)
	}
	if got := r.client.Stats().Calls; got != callsBefore {
		t.Errorf("calls went from %d to %d; expired access must not reach the wire", callsBefore, got)
	}
	// The drop left the counter where it was: a fresh access succeeds.
	got, err := proxy.AccessContext(context.Background(), OpRead, "k", nil)
	if err != nil {
		t.Fatalf("access after expired drop: %v", err)
	}
	if !bytes.Equal(got, []byte{9, 9, 9, 9}) {
		t.Errorf("read = %v", got)
	}
}

// TestServerDropsExpiredRound sends an LBL access, cut into frames,
// over a link that takes longer than the access's deadline budget to
// carry it, to a server with no admission gate. The budget is
// rehydrated when the head frame lands, so it runs out while the later
// frames are still crossing: the server drops the round at its budget
// check — before the rest of the table is trial-decrypted — and the
// key's next access, finding the record where its counter is, succeeds
// in one request.
func TestServerDropsExpiredRound(t *testing.T) {
	cfg := LBLConfig{ValueSize: 4, Mode: LBLPointPermute}
	cfg.StreamChunkBytes = cfg.RequestBytesPerAccess() / 4
	r := &rig{store: kvstore.New(), server: transport.NewServer()}
	RegisterLoader(r.server, r.store)
	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	// Each frame takes 50ms to cross, the whole request 200ms.
	l := netsim.Listen(netsim.Link{Bandwidth: int64(cfg.StreamChunkBytes) * 20})
	go r.server.Serve(l)
	t.Cleanup(func() { r.server.Close() })
	var err error
	if r.client, err = transport.Dial(l.Dial, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.client.Close() })
	proxy, err := NewLBLProxy(cfg, prf.NewRandom(), r.client)
	if err != nil {
		t.Fatal(err)
	}
	loadData(t, r, proxy, map[string][]byte{"k": {1, 2, 3, 4}})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := proxy.AccessContext(ctx, OpRead, "k", nil); err == nil {
		t.Fatal("expired access succeeded")
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.expiredRounds.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never dropped the expired round")
		}
		time.Sleep(time.Millisecond)
	}

	// The dropped round was never applied, so the next access executes
	// at the counter the proxy kept.
	got, err := proxy.AccessContext(context.Background(), OpRead, "k", nil)
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

// TestHoldShedsExpiredWaiter: a held access whose deadline passes before
// it leaves is answered unsent — the round that goes out carries
// only live accesses — and a key whose every held access expired is free
// again.
func TestHoldShedsExpiredWaiter(t *testing.T) {
	// hotInFlight returns a deployment whose key-00 has a round held in
	// flight at the server's gate.
	hotInFlight := func(t *testing.T, wg *sync.WaitGroup) (*LBLProxy, *roundGate, chan struct{}) {
		gate := make(chan struct{})
		_, proxy, g := newHoldRig(t, 1, gate)
		admit(t, proxy, wg, OpRead, "key-00", 0)
		<-g.entered
		return proxy, g, gate
	}
	// expiring admits a read of key-00 whose deadline then passes.
	expiring := func(t *testing.T, proxy *LBLProxy, wg *sync.WaitGroup) *answer {
		ctx, cancel := context.WithCancel(context.Background())
		got := start(t, ctx, proxy, wg, false, OpRead, "key-00", nil)
		cancel()
		return got
	}

	t.Run("held", func(t *testing.T) {
		var wg sync.WaitGroup
		proxy, g, gate := hotInFlight(t, &wg)
		expired := expiring(t, proxy, &wg)
		live := admit(t, proxy, &wg, OpRead, "key-00", 0)
		close(gate)
		wg.Wait()
		if live.err != nil {
			t.Errorf("live held access: %v", live.err)
		}
		if !IsDeadlineExpired(expired.err) {
			t.Errorf("expired held access err = %v, want deadline-expired", expired.err)
		}
		if n := proxy.counters.expired.Load(); n != 1 {
			t.Errorf("expired = %d, want 1", n)
		}
		if rounds := g.seen(); len(rounds) != 2 || rounds[1] != "key-00" {
			t.Errorf("rounds = %q, want [key-00 key-00]: the expired held access is shed, the live one follows alone", rounds)
		}
	})

	// Held accesses that all expired send nothing, and must not
	// leave its key owned: the next access to it would be held for a round
	// that never returns.
	t.Run("every held access", func(t *testing.T) {
		var wg sync.WaitGroup
		proxy, g, gate := hotInFlight(t, &wg)
		first, second := expiring(t, proxy, &wg), expiring(t, proxy, &wg)
		close(gate)
		wg.Wait()
		if !IsDeadlineExpired(first.err) || !IsDeadlineExpired(second.err) {
			t.Fatalf("expired held accesses err = %v, %v; want deadline-expired", first.err, second.err)
		}
		if _, err := proxy.AccessContext(context.Background(), OpRead, "key-00", nil); err != nil {
			t.Fatalf("access after every held access expired: %v", err)
		}
		if rounds := g.seen(); len(rounds) != 2 {
			t.Errorf("rounds = %q, want [key-00 key-00]", rounds)
		}
	})

	// An access that arrives already expired at a free key is a round of
	// one dropped before it builds anything: same outcome, same free key.
	t.Run("arrival", func(t *testing.T) {
		_, proxy, g := newHoldRig(t, 1, nil)
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if _, err := proxy.AccessContext(ctx, OpRead, "key-00", nil); !IsDeadlineExpired(err) {
			t.Fatalf("expired arrival err = %v, want deadline-expired", err)
		}
		if _, err := proxy.AccessContext(context.Background(), OpRead, "key-00", nil); err != nil {
			t.Fatalf("access after the expired arrival: %v", err)
		}
		if rounds := g.seen(); len(rounds) != 1 {
			t.Errorf("rounds = %q, want [key-00]", rounds)
		}
	})
}

// TestRouterBusyBreaker: consecutive busy rejections bench a member
// behind fail-fast busies — no wire traffic — and the first access
// after the retry-after window is the readmission probe. The member is
// never evicted from the ring (benching must not move its keys to a peer).
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
		Client: transport.Options{PoolSize: 1, Retry: transport.RetryPolicy{Attempts: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	// Three busy rejections trip the breaker.
	for i := 0; i < busyBreaker; i++ {
		_, err := router.AccessContext(context.Background(), OpRead, "k", nil)
		if !transport.IsBusy(err) || transport.Ambiguous(err) {
			t.Fatalf("access %d: err = %v, want definite busy", i, err)
		}
	}
	shedsAtTrip := s.AdmissionStats().Shed

	// Benched: accesses fail fast with busy and produce no wire traffic.
	_, err = router.AccessContext(context.Background(), OpRead, "k", nil)
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
	_, err = router.AccessContext(context.Background(), OpRead, "k", nil)
	if !transport.IsBusy(err) {
		t.Fatalf("probe access err = %v, want busy (server still saturated)", err)
	}
	if got := s.AdmissionStats().Shed; got != shedsAtTrip+1 {
		t.Errorf("server sheds after probe = %d, want %d (probe must reach the wire)", got, shedsAtTrip+1)
	}
}
