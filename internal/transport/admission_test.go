package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/wire"
)

// TestBusyClassification pins the error taxonomy the overload design
// rests on: a busy rejection is definite (never ambiguous — no parked
// rounds, no dedup resolution) and retryable, whether it arrived as a
// direct MsgBusy or flattened through a proxy hop's RemoteError.
func TestBusyClassification(t *testing.T) {
	cases := []struct {
		name                      string
		err                       error
		busy, ambiguous, canRetry bool
	}{
		{"nil", nil, false, false, true},
		{"direct busy", &BusyError{RetryAfter: 5 * time.Millisecond}, true, false, true},
		{"wrapped busy", fmt.Errorf("access: %w", &BusyError{}), true, false, true},
		// A busy relayed through a proxy arrives as a handler error:
		// still busy, still definite. The relay hop executed (it is the
		// hop that answers), so like any RemoteError it is not retried
		// at this hop — the caller backs off and reissues the access.
		{"relayed busy", &RemoteError{Msg: BusyMsgPrefix + "overloaded"}, true, false, false},
		{"relayed ambiguity", &RemoteError{Msg: AmbiguousMsgPrefix + "conn died"}, false, true, false},
		{"plain handler error", &RemoteError{Msg: "unknown key"}, false, false, false},
		// The handler ran and its response is gone: as unknown as a lost
		// response, and like any RemoteError not retried at this hop.
		{"replay evicted", &RemoteError{Msg: replayEvictedMsg}, false, true, false},
		{"client closed", ErrClosed, false, false, false},
		{"frame too large", ErrFrameTooLarge, false, false, false},
		{"lost connection", errors.New("transport: send: broken pipe"), false, true, true},
		{"attempt deadline", context.DeadlineExceeded, false, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsBusy(tc.err); got != tc.busy {
				t.Errorf("IsBusy = %v, want %v", got, tc.busy)
			}
			if got := Ambiguous(tc.err); got != tc.ambiguous {
				t.Errorf("Ambiguous = %v, want %v", got, tc.ambiguous)
			}
			if tc.err != nil {
				if got := retryable(tc.err); got != tc.canRetry {
					t.Errorf("retryable = %v, want %v", got, tc.canRetry)
				}
			}
		})
	}
}

// limitedServer installs admission control on a fresh test server.
func limitedServer(t *testing.T, cfg AdmissionConfig) (*Server, *admission) {
	t.Helper()
	s := NewServer()
	s.LimitAdmission(cfg)
	a := s.admission.Load()
	if a == nil {
		t.Fatal("LimitAdmission installed nothing")
	}
	return s, a
}

func TestAdmissionExpiredOnArrival(t *testing.T) {
	_, a := limitedServer(t, AdmissionConfig{MaxInflight: 4})
	if v := a.admit(time.Now().Add(-time.Millisecond)); v != admitExpired {
		t.Fatalf("expired-on-arrival verdict = %v, want admitExpired", v)
	}
	if got := a.expired.Load(); got != 1 {
		t.Errorf("expired counter = %d, want 1", got)
	}
}

func TestAdmissionOverflowSheds(t *testing.T) {
	_, a := limitedServer(t, AdmissionConfig{MaxInflight: 1, MaxQueue: 0})
	if v := a.admit(time.Time{}); v != admitRun {
		t.Fatalf("first admit = %v, want admitRun", v)
	}
	if v := a.admit(time.Time{}); v != admitShed {
		t.Fatalf("overflow admit = %v, want admitShed", v)
	}
	if got := a.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	a.release()
	if v := a.admit(time.Time{}); v != admitRun {
		t.Fatalf("admit after release = %v, want admitRun", v)
	}
}

// TestAdmissionLIFOService pins the queue discipline: when a slot
// frees, the newest waiter runs first — under overload the oldest
// waiters are the ones closest to deadline-death, so serving fresh
// work is what keeps goodput nonzero.
func TestAdmissionLIFOService(t *testing.T) {
	_, a := limitedServer(t, AdmissionConfig{MaxInflight: 1, MaxQueue: 2})
	if v := a.admit(time.Time{}); v != admitRun {
		t.Fatalf("slot admit = %v", v)
	}

	order := make(chan string, 2)
	var wg sync.WaitGroup
	// Deterministic arrival order: A queues, then B (polling depth
	// serializes the two admits).
	for i, name := range []string{"A", "B"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if v := a.admit(time.Time{}); v == admitRun {
				order <- name
				a.release()
			}
		}(name)
		want := int64(i + 1)
		waitFor(t, func() bool { return a.depth.Load() == want })
	}

	a.release() // slot transfers to the NEWEST waiter: B, then A
	wg.Wait()
	if first, second := <-order, <-order; first != "B" || second != "A" {
		t.Errorf("service order = %s, %s; want LIFO (B, A)", first, second)
	}
}

// TestAdmissionMakeRoomEvictsExpiredFirst drives makeRoomLocked
// directly: with an expired and a fresh waiter queued (fresh one
// older), the expired waiter is the eviction victim even though LIFO
// alone would have picked the oldest.
func TestAdmissionMakeRoomEvictsExpiredFirst(t *testing.T) {
	a := &admission{cfg: AdmissionConfig{MaxInflight: 1, MaxQueue: 2}}
	fresh := &admWaiter{ch: make(chan admVerdict, 1), deadline: time.Now().Add(time.Hour)}
	dead := &admWaiter{ch: make(chan admVerdict, 1), deadline: time.Now().Add(-time.Millisecond)}
	a.queue = []*admWaiter{fresh, dead} // fresh is oldest

	a.mu.Lock()
	ok := a.makeRoomLocked(time.Now())
	a.mu.Unlock()
	if !ok {
		t.Fatal("makeRoomLocked found nothing to evict")
	}
	select {
	case v := <-dead.ch:
		if v != admitExpired {
			t.Errorf("expired waiter verdict = %v, want admitExpired", v)
		}
	default:
		t.Fatal("expired waiter was not the victim")
	}
	if len(a.queue) != 1 || a.queue[0] != fresh {
		t.Errorf("queue after eviction = %d waiters, fresh survived = %v", len(a.queue), len(a.queue) == 1 && a.queue[0] == fresh)
	}
	if a.expired.Load() != 1 || a.shed.Load() != 0 {
		t.Errorf("counters = shed %d expired %d, want 0/1", a.shed.Load(), a.expired.Load())
	}

	// With no expired waiter, the oldest overall goes.
	b := &admission{cfg: AdmissionConfig{MaxInflight: 1, MaxQueue: 2}}
	w1 := &admWaiter{ch: make(chan admVerdict, 1)}
	w2 := &admWaiter{ch: make(chan admVerdict, 1)}
	b.queue = []*admWaiter{w1, w2}
	b.mu.Lock()
	b.makeRoomLocked(time.Now())
	b.mu.Unlock()
	select {
	case v := <-w1.ch:
		if v != admitShed {
			t.Errorf("oldest waiter verdict = %v, want admitShed", v)
		}
	default:
		t.Fatal("oldest waiter was not the victim")
	}
}

// TestAdmissionReleaseShedsExpiredWaiters: a freed slot first answers
// every deadline-dead waiter busy, then transfers to the newest
// survivor without changing the running count.
func TestAdmissionReleaseShedsExpiredWaiters(t *testing.T) {
	a := &admission{cfg: AdmissionConfig{MaxInflight: 1, MaxQueue: 4}}
	a.running = 1
	dead := &admWaiter{ch: make(chan admVerdict, 1), deadline: time.Now().Add(-time.Millisecond)}
	live := &admWaiter{ch: make(chan admVerdict, 1), deadline: time.Now().Add(time.Hour)}
	a.queue = []*admWaiter{dead, live}

	a.release()
	if v := <-dead.ch; v != admitExpired {
		t.Errorf("dead waiter verdict = %v, want admitExpired", v)
	}
	if v := <-live.ch; v != admitRun {
		t.Errorf("live waiter verdict = %v, want admitRun (slot transfer)", v)
	}
	a.mu.Lock()
	running, depth := a.running, len(a.queue)
	a.mu.Unlock()
	if running != 1 || depth != 0 {
		t.Errorf("running = %d queue = %d after transfer, want 1/0", running, depth)
	}
}

// TestAdmissionQueuedWaiterExpires: a waiter whose own deadline fires
// while it waits in the queue is answered expired by its timer and
// leaves the queue, so a later release finds no dead waiter to wake and
// retires its slot.
func TestAdmissionQueuedWaiterExpires(t *testing.T) {
	_, a := limitedServer(t, AdmissionConfig{MaxInflight: 1, MaxQueue: 1})
	if v := a.admit(time.Time{}); v != admitRun {
		t.Fatalf("slot admit = %v, want admitRun", v)
	}
	if v := a.admit(time.Now().Add(20 * time.Millisecond)); v != admitExpired {
		t.Fatalf("queued waiter's verdict = %v, want admitExpired", v)
	}
	if got := a.expired.Load(); got != 1 {
		t.Errorf("expired counter = %d, want 1", got)
	}
	if d := a.depth.Load(); d != 0 {
		t.Errorf("queue depth after the waiter's timeout = %d, want 0", d)
	}

	a.release()
	a.mu.Lock()
	running, queued := a.running, len(a.queue)
	a.mu.Unlock()
	if running != 0 || queued != 0 || a.expired.Load() != 1 {
		t.Errorf("after release: running = %d, queue = %d, expired = %d; want 0/0/1 (no dead waiter woken)",
			running, queued, a.expired.Load())
	}
}

// gateServer starts a server whose msgSlow handler blocks until the
// returned release func is called, so tests can hold its admission
// slots at will.
func gateServer(t *testing.T, cfg AdmissionConfig) (*Server, *netsim.Listener, chan struct{}, *atomic.Int64) {
	t.Helper()
	gate := make(chan struct{})
	var executed atomic.Int64
	s := NewServer()
	s.Handle(msgEcho, func(_ context.Context, p []byte) ([]byte, error) {
		executed.Add(1)
		return bytes.Clone(p), nil
	})
	s.Handle(msgSlow, func(_ context.Context, p []byte) ([]byte, error) {
		executed.Add(1)
		<-gate
		return bytes.Clone(p), nil
	})
	s.LimitAdmission(cfg)
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l, gate, &executed
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedOverWire saturates a 1-slot server and checks the
// caller's view of a shed: a BusyError carrying the configured
// retry-after hint, classified busy and definite, with the shed
// counted server-side.
func TestAdmissionShedOverWire(t *testing.T) {
	const retryAfter = 30 * time.Millisecond
	s, l, gate, executed := gateServer(t, AdmissionConfig{MaxInflight: 1, MaxQueue: 0, RetryAfter: retryAfter})
	c := dialTest(t, l, 2)

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(msgSlow, []byte("occupy"))
		done <- err
	}()
	waitFor(t, func() bool { return executed.Load() == 1 })

	_, err := c.Call(msgEcho, []byte("overflow"))
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("overflow call error = %v, want *BusyError", err)
	}
	if be.RetryAfter != retryAfter {
		t.Errorf("RetryAfter = %v, want %v", be.RetryAfter, retryAfter)
	}
	if !IsBusy(err) || Ambiguous(err) {
		t.Errorf("IsBusy = %v Ambiguous = %v, want true/false", IsBusy(err), Ambiguous(err))
	}
	if st := s.AdmissionStats(); st.Shed < 1 {
		t.Errorf("AdmissionStats.Shed = %d, want >= 1", st.Shed)
	}
	if got := executed.Load(); got != 1 {
		t.Errorf("handlers executed = %d, want 1 (shed request must not run)", got)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("occupying call failed: %v", err)
	}
}

// TestBusyFrameShapePinned audits a saturated server with shape
// auditors on both ends: whatever payload is shed, every rejection is
// the same wire.BudgetLen-byte MsgBusy frame, so shedding leaks
// nothing about what it shed.
func TestBusyFrameShapePinned(t *testing.T) {
	s, l, gate, executed := gateServer(t, AdmissionConfig{MaxInflight: 1, MaxQueue: 0, RetryAfter: 10 * time.Millisecond})
	c := dialTest(t, l, 2)

	classify := func(msgType byte, payload []byte) (uint64, bool, bool) {
		// Class = request length: every distinct request size is its
		// own class, so strict request pinning cannot trip while the
		// busy responses still must be identical within each class.
		return uint64(len(payload)), true, true
	}
	reg := obs.NewRegistry()
	sAud := obs.NewShapeAuditor(reg, "server")
	cAud := obs.NewShapeAuditor(reg, "client")
	s.AuditShape(sAud, classify)
	c.AuditShape(cAud, classify)

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(msgSlow, []byte("occupy"))
		done <- err
	}()
	waitFor(t, func() bool { return executed.Load() == 1 })

	for _, size := range []int{1, 7, 64, 300} {
		_, err := c.Call(msgEcho, bytes.Repeat([]byte{0xAB}, size))
		if !IsBusy(err) {
			t.Fatalf("size %d: err = %v, want busy", size, err)
		}
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("occupying call failed: %v", err)
	}
	if v := sAud.Violations(); v != 0 {
		t.Errorf("server shape violations = %d, want 0", v)
	}
	if v := cAud.Violations(); v != 0 {
		t.Errorf("client shape violations = %d, want 0", v)
	}
}

// TestExpiredBudgetNeverSent: a call whose deadline budget is already
// exhausted fails client-side with context.DeadlineExceeded and puts
// nothing on the wire — the cheapest possible shed.
func TestExpiredBudgetNeverSent(t *testing.T) {
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	_, err := c.CallContext(ctx, msgEcho, []byte("late"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if st := c.Stats(); st.Calls != 0 || st.BytesSent != 0 {
		t.Errorf("stats after expired call = %+v, want nothing sent", st)
	}
	// A zero-budget (no deadline) call through the same client is
	// untouched by deadline machinery.
	if _, err := c.Call(msgEcho, []byte("fresh")); err != nil {
		t.Fatalf("background call after expired one: %v", err)
	}
}

// TestZeroBudgetPassesAdmission: frames without a deadline
// budget (header field 0) pass an admission gate — absence
// of a deadline means "no deadline", never "already expired".
func TestZeroBudgetPassesAdmission(t *testing.T) {
	_, l, gate, _ := gateServer(t, AdmissionConfig{MaxInflight: 2, MaxQueue: 2})
	close(gate)
	c := dialTest(t, l, 1)
	resp, err := c.Call(msgEcho, []byte("no-deadline"))
	if err != nil {
		t.Fatalf("zero-budget call under admission: %v", err)
	}
	if !bytes.Equal(resp, []byte("no-deadline")) {
		t.Errorf("echo = %q", resp)
	}
}

// TestBudgetSurvivesDedupReplay: retrying a request id under admission
// control replays the cached response without re-executing the
// handler — admission runs before the dedup cache, so the replay needs
// (and gets) a slot, but the one execution stays one.
func TestBudgetSurvivesDedupReplay(t *testing.T) {
	_, l, gate, executed := gateServer(t, AdmissionConfig{MaxInflight: 1, MaxQueue: 1})
	close(gate)
	c := dialTest(t, l, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	id := c.NextID()
	first, err := c.CallContextID(ctx, id, msgEcho, []byte("once"))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := c.CallContextID(ctx, id, msgEcho, []byte("once"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, replay) {
		t.Errorf("replay = %q, want %q", replay, first)
	}
	if got := executed.Load(); got != 1 {
		t.Errorf("handler executed %d times, want exactly 1", got)
	}
}

// TestBusyPayloadCarriesRetryAfter pins the busy frame's width and
// content at the wire level: exactly wire.BudgetLen bytes encoding the
// configured hint in millis.
func TestBusyPayloadCarriesRetryAfter(t *testing.T) {
	_, a := limitedServer(t, AdmissionConfig{MaxInflight: 1, RetryAfter: 40 * time.Millisecond})
	p := a.busyPayload()
	if len(p) != wire.BudgetLen {
		t.Fatalf("busy payload = %d bytes, want %d", len(p), wire.BudgetLen)
	}
	if got := wire.Budget(p); got != 40 {
		t.Errorf("busy payload budget = %d ms, want 40", got)
	}
}
