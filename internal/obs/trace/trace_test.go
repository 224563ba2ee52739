package trace

import (
	"context"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if sp := tr.StartRoot("x"); sp != nil {
		t.Fatal("nil tracer must start nil spans")
	}
	if sp := tr.StartRemote(SpanContext{TraceID: 1, SpanID: 2}, "x"); sp != nil {
		t.Fatal("nil tracer must start nil remote spans")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v, want nil", got)
	}
	if tr.Process() != "" {
		t.Fatal("nil tracer process must be empty")
	}

	var sp *Span
	sp.End() // must not panic
	if c := sp.Child("y"); c != nil {
		t.Fatal("nil span must produce nil children")
	}
	if sc := sp.Context(); sc.Valid() {
		t.Fatal("nil span context must be invalid")
	}
	if sp.TraceID() != 0 {
		t.Fatal("nil span trace id must be 0")
	}

	ctx := ContextWith(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("ContextWith(nil span) must not install a span")
	}
	if StartChild(ctx, "z") != nil {
		t.Fatal("StartChild without an active span must be nil")
	}
}

func TestParentLinkage(t *testing.T) {
	tr := NewTracer("proxy", 64)
	root := tr.StartRoot("root")
	child := root.Child("child")
	grand := child.Child("grand")
	grand.End()
	child.End()
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
		if r.TraceID != root.TraceID() {
			t.Fatalf("span %s trace id %x, want %x", r.Name, r.TraceID, root.TraceID())
		}
		if r.Process != "proxy" {
			t.Fatalf("span %s process %q, want proxy", r.Name, r.Process)
		}
	}
	if byName["root"].ParentID != 0 {
		t.Fatal("root must have no parent")
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Fatal("child must parent on root")
	}
	if byName["grand"].ParentID != byName["child"].SpanID {
		t.Fatal("grand must parent on child")
	}
}

func TestStartRemoteJoinsTrace(t *testing.T) {
	proxy := NewTracer("proxy", 16)
	server := NewTracer("server", 16)
	ps := proxy.StartRoot("rpc")
	ss := server.StartRemote(ps.Context(), "server_handle")
	if ss.TraceID() != ps.TraceID() {
		t.Fatalf("remote span trace id %x, want %x", ss.TraceID(), ps.TraceID())
	}
	ss.End()
	recs := server.Snapshot()
	if len(recs) != 1 || recs[0].ParentID != ps.Context().SpanID {
		t.Fatalf("remote span must parent on the wire context's span id; got %+v", recs)
	}
	if sp := server.StartRemote(SpanContext{}, "x"); sp != nil {
		t.Fatal("invalid wire context must start a nil span")
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTracer("p", 16)
	sp := tr.StartRoot("once")
	sp.End()
	sp.End()
	sp.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("triple End recorded %d spans, want 1", got)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := NewTracer("p", 16) // capacity rounds to exactly 16
	for i := 0; i < 100; i++ {
		tr.StartRoot("s").End()
	}
	if got := len(tr.Snapshot()); got != 16 {
		t.Fatalf("after 100 spans the 16-slot ring holds %d, want 16", got)
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 16}, {1, 16}, {17, 32}, {64, 64}, {100, 128}} {
		tr := NewTracer("p", tc.in)
		if got := len(tr.slots); got != tc.want {
			t.Fatalf("NewTracer(%d) capacity %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestContextThreading(t *testing.T) {
	tr := NewTracer("p", 16)
	root := tr.StartRoot("root")
	ctx := ContextWith(context.Background(), root)
	if FromContext(ctx) != root {
		t.Fatal("ContextWith must install the span in ctx")
	}
	child := StartChild(ctx, "child")
	if child.TraceID() != root.TraceID() {
		t.Fatal("StartChild must stay in the parent's trace")
	}
	child.End()
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].ParentID != root.Context().SpanID {
		t.Fatalf("ctx child must parent on the ctx span; got %+v", recs)
	}
}

func TestConcurrentEndAndSnapshot(t *testing.T) {
	tr := NewTracer("p", 128)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				sp := tr.StartRoot("s")
				sp.Child("c").End()
				sp.End()
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, r := range tr.Snapshot() {
					if r.SpanID == 0 {
						t.Error("snapshot returned a zero span id")
						return
					}
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
}
