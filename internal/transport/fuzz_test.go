package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"ortoa/internal/obs/trace"
)

// FuzzReadFrame drives readFrame, the first parser every byte from the
// other side of a connection meets, in either direction. Read as a
// stream of frames, arbitrary bytes must not panic it, and no frame may
// cost more than MaxFrameSize of allocation, whatever its length field
// claims. And the frame writeFrame makes of any header fields and
// payload — a request's head or continuation, its flagMore and flagCont
// and the position a continuation carries in its budget field, a
// response, a busy frame — reads back exactly.
func FuzzReadFrame(f *testing.F) {
	frame := func(flags byte, budget uint32, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, 7, 9, trace.SpanContext{TraceID: 3, SpanID: 4}, budget, 2, flags, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	head, cont, last := frame(flagMore, 1500, []byte("head")), frame(flagMore|flagCont, 1, []byte("middle")), frame(flagCont, 2, []byte("tail"))
	stream := bytes.Join([][]byte{head, cont, last, frame(flagResponse, 0, []byte("answer"))}, nil)
	busy := frame(flagResponse|flagBusy, 0, make([]byte, 4))
	huge := bytes.Clone(head)
	binary.LittleEndian.PutUint32(huge, MaxFrameSize)
	tooLong := bytes.Clone(head)
	binary.LittleEndian.PutUint32(tooLong, MaxFrameSize+1)
	tooShort := bytes.Clone(head)
	binary.LittleEndian.PutUint32(tooShort, minFrameLen-1)
	for _, s := range [][]byte{stream, busy, head[:len(head)-1], head[:headerSize-1], huge, tooLong, tooShort, nil} {
		f.Add(s, uint64(7), uint64(9), uint64(3), uint64(4), uint32(1), byte(2), byte(flagMore|flagCont), []byte("payload"))
	}
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0), uint64(0), uint32(0), MsgBusy, byte(flagResponse|flagBusy), []byte{})

	f.Fuzz(func(t *testing.T, stream []byte, session, id, traceID, spanID uint64, budget uint32, msgType, flags byte, payload []byte) {
		var hdr [headerSize]byte
		r := bytes.NewReader(stream)
		for {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, _, _, _, _, p, err := readFrame(r, &hdr)
			runtime.ReadMemStats(&after)
			// What the fuzz engine allocates meanwhile is far below the slack.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrameSize+1<<20 {
				t.Fatalf("reading one frame allocated %d bytes, past MaxFrameSize", grew)
			}
			if err != nil {
				break
			}
			if len(p) > MaxFrameSize-minFrameLen {
				t.Fatalf("a %d-byte payload passed the frame cap", len(p))
			}
		}

		var w bytes.Buffer
		tr := trace.SpanContext{TraceID: traceID, SpanID: spanID}
		if err := writeFrame(&w, session, id, tr, budget, msgType, flags, payload); err != nil {
			t.Fatal(err)
		}
		s, i, gotTr, b, m, fl, p, err := readFrame(&w, &hdr)
		if err != nil {
			t.Fatal(err)
		}
		if s != session || i != id || gotTr != tr || b != budget || m != msgType || fl != flags || !bytes.Equal(p, payload) || w.Len() != 0 {
			t.Fatalf("frame read back as session %d id %d trace %v budget %d type %d flags %#x payload %q (%d bytes left), want %d %d %v %d %d %#x %q",
				s, i, gotTr, b, m, fl, p, w.Len(), session, id, tr, budget, msgType, flags, payload)
		}
	})
}
