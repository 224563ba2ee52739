package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ortoa/internal/netsim"
)

const (
	msgEcho  = 1
	msgFail  = 2
	msgSlow  = 3
	msgCount = 4
)

func startTestServer(t *testing.T, link netsim.Link) (*Server, *netsim.Listener) {
	t.Helper()
	s := NewServer()
	s.Handle(msgEcho, func(_ context.Context, p []byte) ([]byte, error) { return bytes.Clone(p), nil })
	s.Handle(msgFail, func(_ context.Context, p []byte) ([]byte, error) { return nil, errors.New("handler exploded") })
	s.Handle(msgSlow, func(_ context.Context, p []byte) ([]byte, error) {
		time.Sleep(50 * time.Millisecond)
		return append([]byte("slow:"), p...), nil
	})
	l := netsim.Listen(link)
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l
}

func dialTest(t *testing.T, l *netsim.Listener, pool int) *Client {
	t.Helper()
	c, err := Dial(l.Dial, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCallEcho(t *testing.T) {
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)
	resp, err := c.Call(msgEcho, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("payload")) {
		t.Errorf("echo = %q", resp)
	}
}

func TestEmptyPayload(t *testing.T) {
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)
	resp, err := c.Call(msgEcho, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 0 {
		t.Errorf("echo of empty = %q", resp)
	}
}

func TestLargePayload(t *testing.T) {
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)
	payload := bytes.Repeat([]byte{0xA5}, 1<<20)
	resp, err := c.Call(msgEcho, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Error("1MiB payload corrupted in flight")
	}
}

func TestRemoteError(t *testing.T) {
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)
	_, err := c.Call(msgFail, []byte("x"))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !strings.Contains(re.Msg, "handler exploded") {
		t.Errorf("remote message = %q", re.Msg)
	}
}

func TestUnknownMessageType(t *testing.T) {
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)
	_, err := c.Call(99, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestPipelining(t *testing.T) {
	// A slow request must not block a fast one on the same connection.
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)

	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		if _, err := c.Call(msgSlow, []byte("a")); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the slow call get in flight

	start := time.Now()
	if _, err := c.Call(msgEcho, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Errorf("fast call took %v behind a slow one; pipelining broken", elapsed)
	}
	<-slowDone
}

func TestConcurrentCalls(t *testing.T) {
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 4)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("req-%d", i))
			resp, err := c.Call(msgEcho, msg)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(resp, msg) {
				t.Errorf("call %d: got %q", i, resp)
			}
		}(i)
	}
	wg.Wait()
}

func TestCallAfterClose(t *testing.T) {
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)
	c.Close()
	if _, err := c.Call(msgEcho, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after Close = %v, want ErrClosed", err)
	}
}

func TestServerCloseFailsInflight(t *testing.T) {
	s, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)
	// Verify the connection works, then kill the server.
	if _, err := c.Call(msgEcho, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Subsequent dials must fail.
	if _, err := Dial(l.Dial, 1); err == nil {
		t.Error("Dial succeeded after server close")
	}
}

func TestServerCloseDrainsInflight(t *testing.T) {
	// A request already accepted when Close begins must complete: its
	// handler finishes, its response reaches the caller, and only then
	// does Close return.
	s := NewServer()
	started := make(chan struct{})
	s.Handle(msgSlow, func(_ context.Context, p []byte) ([]byte, error) {
		close(started)
		time.Sleep(50 * time.Millisecond)
		return []byte("done"), nil
	})
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	c, err := Dial(l.Dial, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type callResult struct {
		resp []byte
		err  error
	}
	callc := make(chan callResult, 1)
	go func() {
		resp, err := c.Call(msgSlow, nil)
		callc <- callResult{resp, err}
	}()
	<-started // the handler is running; now shut down under it

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()

	select {
	case res := <-callc:
		if res.err != nil {
			t.Errorf("in-flight call failed during Close: %v", res.err)
		} else if !bytes.Equal(res.resp, []byte("done")) {
			t.Errorf("in-flight call response = %q", res.resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call never completed during Close")
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close never returned after the in-flight handler finished")
	}
}

func TestServerCloseUnblocksIdleConns(t *testing.T) {
	// Close must not hang on connections that are open but idle — their
	// read loops sit blocked in readFrame with nothing in flight.
	s, l := startTestServer(t, netsim.Loopback)
	var clients []*Client
	for i := 0; i < 3; i++ {
		c := dialTest(t, l, 2)
		if _, err := c.Call(msgEcho, []byte("warm")); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung with idle open connections")
	}
	// The drained conns are really gone: further calls fail.
	for _, c := range clients {
		if _, err := c.Call(msgEcho, nil); err == nil {
			t.Error("call succeeded on a connection the server closed")
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)
	if _, err := c.Call(msgEcho, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.Close(); err != nil {
			t.Errorf("first Close: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("repeated Close hung")
	}
}

func TestConnectionLossFailsPending(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	s.Handle(msgSlow, func(_ context.Context, p []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	defer s.Close()
	defer close(block)

	c, err := Dial(l.Dial, 1)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(msgSlow, nil)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close() // drops the conn under the pending call
	select {
	case err := <-errc:
		if err == nil {
			t.Error("pending call succeeded after connection loss")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call never failed after connection loss")
	}
}

func TestStats(t *testing.T) {
	_, l := startTestServer(t, netsim.Loopback)
	c := dialTest(t, l, 1)
	payload := make([]byte, 100)
	if _, err := c.Call(msgEcho, payload); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Calls != 1 {
		t.Errorf("Calls = %d, want 1", st.Calls)
	}
	wantSent := int64(headerSize + 100)
	if st.BytesSent != wantSent {
		t.Errorf("BytesSent = %d, want %d", st.BytesSent, wantSent)
	}
	if st.BytesReceived != wantSent {
		t.Errorf("BytesReceived = %d, want %d", st.BytesReceived, wantSent)
	}
}

func TestOverSimulatedWAN(t *testing.T) {
	// One call over an Oregon-like link should take about one RTT.
	link := netsim.Link{RTT: 20 * time.Millisecond}
	_, l := startTestServer(t, link)
	c := dialTest(t, l, 1)
	start := time.Now()
	if _, err := c.Call(msgEcho, []byte("x")); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 18*time.Millisecond {
		t.Errorf("WAN call took %v, want ≥ ~20ms", elapsed)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("WAN call took %v, want ~20ms", elapsed)
	}
}

func TestFrameCorruptionDropsConn(t *testing.T) {
	s := NewServer()
	s.Handle(msgEcho, func(_ context.Context, p []byte) ([]byte, error) { return bytes.Clone(p), nil })
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	defer s.Close()

	raw, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A frame declaring an absurd length must be rejected; the server
	// closes the connection rather than allocating.
	bad := make([]byte, headerSize)
	bad[0], bad[1], bad[2], bad[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := raw.Write(bad); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Error("server responded to a corrupt frame")
	}
}

var _ net.Listener = (*netsim.Listener)(nil)
