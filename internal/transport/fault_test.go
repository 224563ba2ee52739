package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ortoa/internal/netsim"
	"ortoa/internal/obs"
)

// Tests for the fault-tolerance layer: per-call deadlines, at-most-once
// retries against the dedup cache, background reconnection, and the
// teardown paths that keep a broken connection from wedging callers.

func TestOversizedRequestRejected(t *testing.T) {
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)
	_, err := c.Call(msgEcho, make([]byte, MaxFrameSize))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized call err = %v, want ErrFrameTooLarge", err)
	}
	if Ambiguous(err) {
		t.Error("local oversized rejection classified ambiguous; nothing was sent")
	}
	if st := c.Stats(); st.Calls != 0 || st.BytesSent != 0 {
		t.Errorf("oversized request reached the wire: %+v", st)
	}
}

func TestOversizedResponseBecomesRemoteError(t *testing.T) {
	s := NewServer()
	s.Handle(msgCount, func(_ context.Context, p []byte) ([]byte, error) {
		return make([]byte, MaxFrameSize), nil
	})
	s.Handle(msgEcho, func(_ context.Context, p []byte) ([]byte, error) { return bytes.Clone(p), nil })
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	defer s.Close()
	c := dialTest(t, l, 1)
	_, err := c.Call(msgCount, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("oversized response err = %v, want RemoteError", err)
	}
	if !strings.Contains(re.Msg, "exceeds max frame size") {
		t.Errorf("remote message = %q", re.Msg)
	}
	// The error response must not have torn the connection down.
	if _, err := c.Call(msgEcho, []byte("still alive")); err != nil {
		t.Errorf("connection dead after oversized-response error: %v", err)
	}
}

func TestCallTimeoutOnStalledServer(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	s.Handle(msgSlow, func(_ context.Context, p []byte) ([]byte, error) { <-block; return nil, nil })
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	defer s.Close()
	defer close(block) // unblock the handler before Close drains it
	c, err := DialOptions(l.Dial, Options{PoolSize: 1, CallTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call(msgSlow, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("stalled call returned after %v; CallTimeout not enforced", elapsed)
	}
	if !Ambiguous(err) {
		t.Error("deadline expiry classified unambiguous; the server may have executed the request")
	}
}

func TestCallContextCancellation(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	s.Handle(msgSlow, func(_ context.Context, p []byte) ([]byte, error) { <-block; return nil, nil })
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	defer s.Close()
	defer close(block)
	c := dialTest(t, l, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := c.CallContext(ctx, msgSlow, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call err = %v, want context.Canceled", err)
	}
}

func TestRetryReplaysWithoutReexecuting(t *testing.T) {
	// Blackhole exactly one response: the handler runs, its response
	// vanishes, and the attempt times out. A request of one frame is
	// retried — its producer runs again and sends the same frame under the
	// same request id — and must be answered from the dedup cache, not by
	// running the handler again. A request of several frames is sent once:
	// its outcome stays unknown.
	for _, tc := range []struct {
		name   string
		frames []string
	}{
		{"one frame", []string{"x"}},
		{"three frames", []string{"a", "b", "c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := &netsim.FaultPlan{BlackholeProb: 1, MaxFaults: 1}
			s := NewServer()
			var execs atomic.Int64
			s.Handle(msgCount, func(ctx context.Context, p []byte) ([]byte, error) {
				execs.Add(1)
				out := append([]byte("ok:"), p...)
				for sr, more := StreamFrom(ctx), StreamFrom(ctx) != nil; more; {
					var frame []byte
					var err error
					if frame, more, err = sr.Next(ctx); err != nil {
						return nil, err
					}
					out = append(out, frame...)
				}
				return out, nil
			})
			reg := obs.NewRegistry()
			s.Instrument(reg)
			l := netsim.Listen(netsim.Link{Fault: plan})
			go s.Serve(l)
			defer s.Close()
			c, err := DialOptions(l.Dial, Options{
				PoolSize:    1,
				CallTimeout: 50 * time.Millisecond,
				Retry:       RetryPolicy{Attempts: 6, Backoff: 2 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Instrument(reg)

			var runs int
			resp, err := c.CallStream(context.Background(), msgCount, func(send func([]byte, bool) error) error {
				runs++
				for i, f := range tc.frames {
					if err := send([]byte(f), i == len(tc.frames)-1); err != nil {
						return err
					}
				}
				return nil
			})
			retries := reg.Counter("ortoa_transport_client_retries_total", "").Value()
			hits := reg.Counter("ortoa_transport_server_dedup_hits_total", "").Value()
			if len(tc.frames) == 1 {
				if err != nil {
					t.Fatalf("call failed despite retries: %v", err)
				}
				if string(resp) != "ok:x" {
					t.Errorf("resp = %q", resp)
				}
				if runs < 2 || retries < 1 || hits < 1 {
					t.Errorf("producer ran %d times, %d retries, %d dedup hits: want the request resent and replayed", runs, retries, hits)
				}
			} else {
				if !Ambiguous(err) {
					t.Fatalf("err = %v, want an unknown outcome", err)
				}
				if runs != 1 || retries != 0 {
					t.Errorf("producer ran %d times, %d retries: a request of several frames must be sent once", runs, retries)
				}
			}
			if n := execs.Load(); n != 1 {
				t.Errorf("handler executed %d times, want exactly 1 (at-most-once broken)", n)
			}
			if bh := plan.Stats().Blackholes; bh != 1 {
				t.Errorf("blackholes injected = %d, want 1", bh)
			}
		})
	}
}

// TestRetryKeepsOutcomeUnknown: once an attempt may have executed, a
// later attempt's failure says nothing about it — a busy shed happens
// before the dedup cache is consulted — so the call reports the outcome
// as unknown. Only the handler's answer to the id settles it.
func TestRetryKeepsOutcomeUnknown(t *testing.T) {
	opts := Options{
		PoolSize:    1,
		CallTimeout: 30 * time.Millisecond,
		Retry:       RetryPolicy{Attempts: 3, Backoff: time.Millisecond},
	}
	t.Run("shed after a timeout", func(t *testing.T) {
		s, l, gate, executed := gateServer(t, AdmissionConfig{MaxInflight: 1, RetryAfter: time.Millisecond})
		defer close(gate)
		c, err := DialOptions(l.Dial, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// The first attempt is admitted and blocks in the handler until it
		// times out; the other two are shed busy.
		_, err = c.Call(msgSlow, []byte("once"))
		if !Ambiguous(err) || IsBusy(err) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v (Ambiguous %v, IsBusy %v), want the first attempt's unknown outcome", err, Ambiguous(err), IsBusy(err))
		}
		if n, shed := executed.Load(), s.AdmissionStats().Shed; n != 1 || shed != 2 {
			t.Errorf("handler ran %d times, %d attempts shed: want 1 and 2", n, shed)
		}
	})
	t.Run("answered after a timeout", func(t *testing.T) {
		s := NewServer()
		gate := make(chan struct{})
		s.Handle(msgFail, func(context.Context, []byte) ([]byte, error) {
			<-gate
			return nil, errors.New("refused")
		})
		l := netsim.Listen(netsim.Loopback)
		go s.Serve(l)
		defer s.Close()
		c, err := DialOptions(l.Dial, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		reg := obs.NewRegistry()
		c.Instrument(reg)
		// The handler answers once the first attempt has timed out: the
		// retry reads that answer from the dedup cache.
		go func() {
			defer close(gate)
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if reg.Counter("ortoa_transport_client_retries_total", "").Value() >= 1 {
					return
				}
			}
		}()
		_, err = c.Call(msgFail, nil)
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "refused" || Ambiguous(err) {
			t.Errorf("err = %v, want the handler's definite answer", err)
		}
	})
}

func TestReconnectAfterReset(t *testing.T) {
	// Reset exactly one write: the first request tears the connection
	// down; the redial loop must restore the (only) pooled connection and
	// the retry must complete through it.
	plan := &netsim.FaultPlan{ResetProb: 1, MaxFaults: 1}
	s := NewServer()
	s.Handle(msgEcho, func(_ context.Context, p []byte) ([]byte, error) { return bytes.Clone(p), nil })
	l := netsim.Listen(netsim.Link{Fault: plan})
	go s.Serve(l)
	defer s.Close()
	reg := obs.NewRegistry()
	c, err := DialOptions(l.Dial, Options{
		PoolSize:         1,
		CallTimeout:      100 * time.Millisecond,
		Retry:            RetryPolicy{Attempts: 10, Backoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
		ReconnectBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Instrument(reg)

	resp, err := c.Call(msgEcho, []byte("hi"))
	if err != nil {
		t.Fatalf("call failed despite reconnect+retry: %v", err)
	}
	if string(resp) != "hi" {
		t.Errorf("resp = %q", resp)
	}
	if v := reg.Counter("ortoa_transport_client_reconnects_total", "").Value(); v < 1 {
		t.Errorf("reconnects = %d, want >= 1", v)
	}
	if rs := plan.Stats().Resets; rs != 1 {
		t.Errorf("resets injected = %d, want 1", rs)
	}
}

func TestFailFastWhenPoolDown(t *testing.T) {
	// With every pooled connection dead and redials failing, calls must
	// fail fast with ErrNoLiveConns instead of queueing behind the pool.
	_, l := startTestServer(t, netsim.Loopback)
	var dials atomic.Int64
	dial := func() (net.Conn, error) {
		if dials.Add(1) > 1 {
			return nil, errors.New("dial refused")
		}
		return l.Dial()
	}
	c, err := DialOptions(dial, Options{PoolSize: 1, ReconnectBackoff: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(msgEcho, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	c.conns[0].mu.Lock()
	conn := c.conns[0].conn
	c.conns[0].mu.Unlock()
	conn.Close() // the read loop notices and marks the conn dead

	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.Call(msgEcho, nil)
		if errors.Is(err, ErrNoLiveConns) {
			if !Ambiguous(err) {
				t.Error("ErrNoLiveConns classified unambiguous; wrapped send paths may have executed")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw ErrNoLiveConns with a dead pool; last err = %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// writeFailConn fails every write, modeling a connection that can
// receive requests but not carry responses.
type writeFailConn struct{ net.Conn }

func (c *writeFailConn) Write(p []byte) (int, error) { return 0, errors.New("injected write failure") }

type writeFailListener struct{ net.Listener }

func (l *writeFailListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeFailConn{c}, nil
}

func TestServeConnTearsDownOnWriteError(t *testing.T) {
	// A server connection whose response writes fail must be torn down,
	// not left accepting requests: the client's pending call then fails
	// fast via its read loop instead of hanging forever.
	s := NewServer()
	s.Handle(msgEcho, func(_ context.Context, p []byte) ([]byte, error) { return bytes.Clone(p), nil })
	inner := netsim.Listen(netsim.Loopback)
	go s.Serve(&writeFailListener{inner})
	defer s.Close()
	c, err := Dial(inner.Dial, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(msgEcho, []byte("x"))
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("call succeeded over a connection that cannot carry responses")
		}
		if !Ambiguous(err) {
			t.Errorf("lost-connection err %v classified unambiguous", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call hung; server kept a write-broken connection open")
	}
}

func TestDedupTombstoneOnByteEviction(t *testing.T) {
	oldBytes := dedupSessionBytes
	dedupSessionBytes = 100
	defer func() { dedupSessionBytes = oldBytes }()

	d := newDedupCache()
	sess, e1, isNew := d.begin(1, 1)
	if !isNew {
		t.Fatal("first begin not new")
	}
	sess.complete(1, e1, flagResponse, make([]byte, 80))
	_, e2, _ := d.begin(1, 2)
	sess.complete(2, e2, flagResponse, make([]byte, 80)) // over budget: e1 tombstoned

	_, e1again, isNew := d.begin(1, 1)
	if isNew {
		t.Fatal("byte eviction forgot the entry entirely; execution fact must survive as a tombstone")
	}
	flags, resp := sess.replay(e1again)
	if flags&flagError == 0 || string(resp) != replayEvictedMsg {
		t.Fatalf("tombstone replay = flags %x resp %q, want error %q", flags, resp, replayEvictedMsg)
	}
	if !Ambiguous(&RemoteError{Msg: string(resp)}) {
		t.Error("a tombstone replay is not reported ambiguous")
	}
	// The newest entry is exempt from eviction; its payload survives.
	if flags, resp := sess.replay(e2); flags&flagError != 0 || len(resp) != 80 {
		t.Errorf("newest entry evicted: flags %x, %d bytes", flags, len(resp))
	}
}

func TestDedupEntryCapForgetsOldest(t *testing.T) {
	oldCap := dedupEntryCap
	dedupEntryCap = 4
	defer func() { dedupEntryCap = oldCap }()

	d := newDedupCache()
	for id := uint64(1); id <= 8; id++ {
		sess, e, isNew := d.begin(1, id)
		if !isNew {
			t.Fatalf("id %d already present", id)
		}
		sess.complete(id, e, flagResponse, []byte{byte(id)})
	}
	if _, _, isNew := d.begin(1, 1); !isNew {
		t.Error("entry past the cap still cached; entry-cap eviction must forget it entirely")
	}
	if _, _, isNew := d.begin(1, 8); isNew {
		t.Error("newest entry forgotten by entry-cap eviction")
	}
}

func TestAmbiguousClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&RemoteError{Msg: "handler exploded"}, false},
		{ErrFrameTooLarge, false},
		{ErrClosed, false},
		{fmt.Errorf("wrap: %w", ErrClosed), false},
		{ErrNoLiveConns, true},
		{context.DeadlineExceeded, true},
		{errors.New("transport: connection lost: EOF"), true},
	}
	for _, c := range cases {
		if got := Ambiguous(c.err); got != c.want {
			t.Errorf("Ambiguous(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	// retryable matches Ambiguous exactly: an outcome-known error cannot
	// be improved by retrying, an outcome-unknown one is safe to retry
	// under the same id.
	for _, c := range cases {
		if c.err == nil {
			continue
		}
		if got := retryable(c.err); got != Ambiguous(c.err) {
			t.Errorf("retryable(%v) = %v disagrees with Ambiguous", c.err, got)
		}
	}
}

func TestSessionIDsNonZeroAndDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		sid := newSessionID()
		if sid == 0 {
			t.Fatal("zero session id; zero is reserved for no-dedup peers")
		}
		if seen[sid] {
			t.Fatalf("session id %d repeated", sid)
		}
		seen[sid] = true
	}
}
