package transport

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
)

// Tests for span-context propagation through the frame header and for
// the shape consequences of carrying it: the trace field is fixed-size,
// so frames are byte-identical in length whether tracing is on or off.

func TestFrameLengthConstantTracedOrNot(t *testing.T) {
	payload := []byte("the payload does not change")
	var traced, untraced bytes.Buffer
	sc := trace.SpanContext{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00}
	if err := writeFrame(&traced, 7, 42, sc, 0, msgEcho, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&untraced, 7, 42, trace.SpanContext{}, 0, msgEcho, 0, payload); err != nil {
		t.Fatal(err)
	}
	if traced.Len() != untraced.Len() {
		t.Fatalf("traced frame is %d bytes, untraced %d: tracing changes the transcript shape",
			traced.Len(), untraced.Len())
	}
	if traced.Len() != headerSize+len(payload) {
		t.Fatalf("frame length %d, want header(%d)+payload(%d)", traced.Len(), headerSize, len(payload))
	}

	// The ref round-trips exactly, and an all-zero ref reads back as an
	// invalid (untraced) span context.
	var hdr [headerSize]byte
	_, _, gotSC, _, _, _, gotPayload, err := readFrame(&traced, &hdr)
	if err != nil {
		t.Fatal(err)
	}
	if gotSC != sc {
		t.Fatalf("trace ref round-trip: got %+v, want %+v", gotSC, sc)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload round-trip: %q", gotPayload)
	}
	_, _, gotSC, _, _, _, _, err = readFrame(&untraced, &hdr)
	if err != nil {
		t.Fatal(err)
	}
	if gotSC.Valid() {
		t.Fatalf("zero trace ref read back as valid context %+v", gotSC)
	}
}

// TestTracePropagatesToServer pins the client→server join of DESIGN.md
// §13 — caller's span → transport_attempt → server_handle → the
// handler's own span — for a request sent as one frame and for one cut
// into several: a multi-frame call is an attempt like any other, so a
// traced streamed access resolves to the same tree.
func TestTracePropagatesToServer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames []string
	}{{"one frame", []string{"traced"}}, {"three frames", []string{"tra", "c", "ed"}}} {
		t.Run(tc.name, func(t *testing.T) { tracePropagates(t, tc.frames) })
	}
}

func tracePropagates(t *testing.T, frames []string) {
	reg := obs.NewRegistry()
	serverTr := reg.Tracer("server", 64)
	clientTr := reg.Tracer("proxy", 64)

	s, l := startJoinServer(t)
	s.SetTracer(serverTr)
	join, _ := s.handler(msgJoin)
	s.Handle(msgJoin, func(ctx context.Context, p []byte) ([]byte, error) {
		sp := trace.StartChild(ctx, "server_decrypt")
		defer sp.End()
		return join(ctx, p)
	})
	c := dialTest(t, l, 1)
	c.SetTracer(clientTr)

	root := clientTr.StartRoot("lbl_access")
	ctx := trace.ContextWith(context.Background(), root)
	var resp []byte
	var err error
	if len(frames) == 1 {
		resp, err = c.CallContext(ctx, msgJoin, []byte(frames[0]))
	} else {
		resp, err = c.CallStreamContextID(ctx, c.NextID(), msgJoin, func(send func([]byte, bool) error) error {
			for i, f := range frames {
				if err := send([]byte(f), i == len(frames)-1); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil || string(resp) != "traced" {
		t.Fatalf("call = %q, %v", resp, err)
	}
	root.End()

	var attempt trace.SpanRecord
	for _, r := range clientTr.Snapshot() {
		switch r.Name {
		case "transport_attempt":
			attempt = r
		case "lbl_access":
		default:
			t.Errorf("client recorded an unknown span %q", r.Name)
		}
	}
	if attempt.SpanID == 0 {
		t.Fatal("client recorded no transport_attempt span")
	}
	if attempt.TraceID != root.TraceID() || attempt.ParentID != root.Context().SpanID {
		t.Fatalf("attempt span %+v must be a child of the caller's root %016x", attempt, root.TraceID())
	}

	var handle, decrypt trace.SpanRecord
	for _, r := range serverTr.Snapshot() {
		switch r.Name {
		case "server_handle":
			handle = r
		case "server_decrypt":
			decrypt = r
		}
	}
	if handle.SpanID == 0 || decrypt.SpanID == 0 {
		t.Fatalf("server spans missing: handle=%+v decrypt=%+v", handle, decrypt)
	}
	if handle.TraceID != root.TraceID() {
		t.Fatalf("server_handle trace id %016x, want the client's %016x: span context did not cross the wire",
			handle.TraceID, root.TraceID())
	}
	if handle.ParentID != attempt.SpanID {
		t.Fatalf("server_handle parent %016x, want the attempt span %016x", handle.ParentID, attempt.SpanID)
	}
	if decrypt.ParentID != handle.SpanID {
		t.Fatalf("handler child parent %016x, want server_handle %016x", decrypt.ParentID, handle.SpanID)
	}
}

func TestUntracedClientSendsZeroRef(t *testing.T) {
	reg := obs.NewRegistry()
	serverTr := reg.Tracer("server", 64)
	s := NewServer()
	s.SetTracer(serverTr)
	s.Handle(msgEcho, func(_ context.Context, p []byte) ([]byte, error) { return bytes.Clone(p), nil })
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	defer s.Close()
	c := dialTest(t, l, 1) // no tracer, no ctx span
	if _, err := c.Call(msgEcho, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if recs := serverTr.Snapshot(); len(recs) != 0 {
		t.Fatalf("untraced request grew %d server spans (%+v); StartRemote must reject a zero ref", len(recs), recs)
	}
}

func TestReplayedResponseJoinsOriginalTrace(t *testing.T) {
	// Blackhole the first response so the retry is answered from the
	// dedup cache: the server must record exactly ONE server_handle span,
	// in the original attempt's trace — the replay re-sends bytes, it
	// does not re-execute or re-trace.
	plan := &netsim.FaultPlan{BlackholeProb: 1, MaxFaults: 1}
	reg := obs.NewRegistry()
	serverTr := reg.Tracer("server", 64)
	clientTr := reg.Tracer("proxy", 64)
	s := NewServer()
	s.SetTracer(serverTr)
	var execs atomic.Int64
	s.Handle(msgCount, func(_ context.Context, p []byte) ([]byte, error) {
		execs.Add(1)
		return bytes.Clone(p), nil
	})
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
	c.SetTracer(clientTr)

	root := clientTr.StartRoot("lbl_access")
	ctx := trace.ContextWith(context.Background(), root)
	if _, err := c.CallContext(ctx, msgCount, []byte("x")); err != nil {
		t.Fatalf("call failed despite retries: %v", err)
	}
	root.End()
	if n := execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times, want 1", n)
	}

	handles := 0
	for _, r := range serverTr.Snapshot() {
		if r.Name != "server_handle" {
			continue
		}
		handles++
		if r.TraceID != root.TraceID() {
			t.Fatalf("server_handle trace %016x, want the original %016x", r.TraceID, root.TraceID())
		}
	}
	if handles != 1 {
		t.Fatalf("server recorded %d server_handle spans, want exactly 1 (replay must not re-trace)", handles)
	}
	// Both attempts were traced client-side, under the same trace.
	attempts := 0
	for _, r := range clientTr.Snapshot() {
		if r.Name == "transport_attempt" {
			attempts++
			if r.TraceID != root.TraceID() {
				t.Fatalf("attempt trace %016x, want %016x", r.TraceID, root.TraceID())
			}
		}
	}
	if attempts < 2 {
		t.Fatalf("client recorded %d attempt spans, want >= 2 (original + retry)", attempts)
	}
}

func TestShapeAuditorSeesTransportFrames(t *testing.T) {
	// A strict classifier at the transport layer: every msgEcho request
	// pinned to one length. Two equal-length calls pass; a third with a
	// different length trips the auditor exactly once on each side.
	classify := func(msgType byte, payload []byte) (uint64, bool, bool) {
		if msgType == msgEcho {
			return 0, true, true
		}
		return 0, false, false
	}
	reg := obs.NewRegistry()
	s := NewServer()
	s.AuditShape(obs.NewShapeAuditor(reg, "server"), classify)
	s.Handle(msgEcho, func(_ context.Context, p []byte) ([]byte, error) { return bytes.Clone(p), nil })
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	defer s.Close()
	c := dialTest(t, l, 1)
	proxyAud := obs.NewShapeAuditor(reg, "proxy")
	c.AuditShape(proxyAud, classify)

	for i := 0; i < 2; i++ {
		if _, err := c.Call(msgEcho, []byte("same-length-A")); err != nil {
			t.Fatal(err)
		}
	}
	vp, vs := proxyAud.Violations(), reg.Counter(`ortoa_obliviousness_shape_violations_total{proc="server"}`, "").Value()
	if vp != 0 || vs != 0 {
		t.Fatalf("uniform calls: proxy=%d server=%d violations, want 0/0", vp, vs)
	}
	if _, err := c.Call(msgEcho, []byte("longer-divergent-payload")); err != nil {
		t.Fatal(err)
	}
	// Request and response both diverge (echo), so each side counts 2.
	if vp := proxyAud.Violations(); vp != 2 {
		t.Fatalf("proxy violations = %d, want 2 (request + echoed response)", vp)
	}
	if vs := reg.Counter(`ortoa_obliviousness_shape_violations_total{proc="server"}`, "").Value(); vs != 2 {
		t.Fatalf("server violations = %d, want 2", vs)
	}
}
