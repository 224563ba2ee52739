package transport

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
)

const msgJoin = 9

// startJoinServer serves msgJoin: the handler concatenates the frames
// of its request and returns them, or the error that cut it short.
func startJoinServer(t *testing.T) (*Server, *netsim.Listener) {
	t.Helper()
	s, l := startTestServer(t, netsim.Loopback)
	s.Handle(msgJoin, func(ctx context.Context, p []byte) ([]byte, error) {
		out := bytes.Clone(p)
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
	return s, l
}

func TestMultiFrameCall(t *testing.T) {
	s, l := startJoinServer(t)
	c := dialTest(t, l, 1)
	reg := obs.NewRegistry()
	classify := func(byte, []byte) (uint64, bool, bool) { return 7, true, true }
	sAud, cAud := obs.NewShapeAuditor(reg, "server"), obs.NewShapeAuditor(reg, "proxy")
	s.AuditShape(sAud, classify)
	c.AuditShape(cAud, classify)
	var frames int
	s.SetObserver(func(byte, int, int) { frames++ })

	// Several requests with the same cut: every frame and the response
	// are pinned strictly by position, so the auditors must stay quiet.
	parts := []string{"head-", "middle-", "middle-", "tail"}
	for round := 0; round < 3; round++ {
		before := c.Stats().Calls
		resp, err := c.CallStream(context.Background(), msgJoin, func(send func([]byte, bool) error) error {
			for i, p := range parts {
				if err := send([]byte(p), i == len(parts)-1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil || string(resp) != strings.Join(parts, "") {
			t.Fatalf("multi-frame call = %q, %v", resp, err)
		}
		if got := c.Stats().Calls - before; got != 1 {
			t.Errorf("multi-frame request counted as %d calls, want 1", got)
		}
	}
	if frames != 3*len(parts) {
		t.Errorf("observer saw %d frames, want %d", frames, 3*len(parts))
	}
	if v := sAud.Violations() + cAud.Violations(); v != 0 {
		t.Fatalf("%d shape violations on identically cut requests", v)
	}
	// A request of the same head class whose second frame differs in
	// length breaks the positional pin — on both ends.
	if _, err := c.CallStream(context.Background(), msgJoin, func(send func([]byte, bool) error) error {
		for i, p := range []string{"head-", "a much longer second frame", "tail"} {
			if err := send([]byte(p), i == 2); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sAud.Violations() == 0 || cAud.Violations() == 0 {
		t.Errorf("auditors missed a continuation frame of the wrong length: server=%d proxy=%d",
			sAud.Violations(), cAud.Violations())
	}
}

// TestMultiFrameSequencing writes raw frame sequences at a server: only
// a gap-free, in-order sequence ending in a frame without flagMore may
// reach the handler as a whole request.
func TestMultiFrameSequencing(t *testing.T) {
	type frame struct {
		flags byte
		pos   uint32
		body  string
	}
	for _, tc := range []struct {
		name   string
		frames []frame
		want   string // response payload, or a substring of the error
		fails  bool
		silent bool // no response at all: the request can never complete
	}{
		{"in order", []frame{{flagMore, 0, "a"}, {flagMore | flagCont, 1, "b"}, {flagCont, 2, "c"}}, "abc", false, false},
		{"lost middle frame", []frame{{flagMore, 0, "a"}, {flagCont, 2, "c"}}, "lost or out of order", true, false},
		{"reordered", []frame{{flagMore, 0, "a"}, {flagMore | flagCont, 2, "c"}, {flagCont, 1, "b"}}, "lost or out of order", true, false},
		{"duplicated", []frame{{flagMore, 0, "a"}, {flagMore | flagCont, 1, "b"}, {flagMore | flagCont, 1, "b"}, {flagCont, 2, "c"}}, "lost or out of order", true, false},
		{"second head", []frame{{flagMore, 0, "a"}, {flagMore, 0, "a"}}, "lost or out of order", true, false},
		{"cut before the last frame", []frame{{flagMore, 0, "a"}, {flagMore | flagCont, 1, "b"}}, "", false, true},
		{"orphan continuation", []frame{{flagCont, 1, "b"}}, "", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, l := startJoinServer(t)
			conn, err := l.Dial()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for _, f := range tc.frames {
				if err := writeFrame(conn, 77, 1, trace.SpanContext{}, f.pos, msgJoin, f.flags, []byte(f.body)); err != nil {
					t.Fatal(err)
				}
			}
			conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond)) //nolint:errcheck
			_, _, _, _, _, flags, payload, err := readFrame(conn, new([headerSize]byte))
			switch {
			case tc.silent:
				if err == nil {
					t.Fatalf("incomplete request was answered: %q", payload)
				}
			case err != nil:
				t.Fatal(err)
			case tc.fails:
				if flags&flagError == 0 || !strings.Contains(string(payload), tc.want) {
					t.Fatalf("response flags %#x %q, want an error containing %q", flags, payload, tc.want)
				}
			default:
				if flags&flagError != 0 || string(payload) != tc.want {
					t.Fatalf("response flags %#x %q, want %q", flags, payload, tc.want)
				}
			}
		})
	}
}
