package transport

import (
	"math/bits"
	"sync"
)

// A requestBuf is one request frame's payload, read into a recycled
// buffer: the server's read loop takes one per frame, head and
// continuation, and returns it once nothing reads the payload any more —
// a head frame's when its handler has returned and the exchange has been
// audited, a continuation frame's when the handler asks StreamReader.Next
// for the one after it or returns. A multi-kilobyte request therefore
// costs no allocation and no zeroing on its way in (HandlerFunc states
// the contract that makes this safe).
type requestBuf struct {
	payload []byte
	class   int // index into requestBufPools, or -1 for a buffer too large to keep
}

// Request buffers are pooled by size class, powers of two from
// 1<<minRequestBufShift bytes up to maxPooledFrameBuf: a frame takes a
// buffer at most twice its length, and one class's frames never wait for
// another's. Like frameBufPool's, a payload longer than maxPooledFrameBuf
// gets a buffer of its own that is left to the garbage collector.
const minRequestBufShift = 9

var requestBufPools [maxPooledFrameShift - minRequestBufShift + 1]sync.Pool

// poisonReleased makes release overwrite every buffer it takes back, so
// that a handler still reading a payload it was meant to let go of reads
// garbage instead of its request. The transport's tests set it.
var poisonReleased bool

// getRequestBuf returns a buffer whose payload is n bytes of whatever the
// buffer held before.
func getRequestBuf(n int) *requestBuf {
	class := max(bits.Len(uint(max(n, 1)-1)), minRequestBufShift) - minRequestBufShift
	if class >= len(requestBufPools) {
		return &requestBuf{payload: make([]byte, n), class: -1}
	}
	b, _ := requestBufPools[class].Get().(*requestBuf)
	if b == nil {
		b = &requestBuf{payload: make([]byte, 1<<(class+minRequestBufShift)), class: class}
	}
	b.payload = b.payload[:n]
	return b
}

// release returns b's buffer to its pool; nothing may read its payload
// afterwards. A nil b is a no-op.
func (b *requestBuf) release() {
	if b == nil || b.class < 0 {
		return
	}
	if poisonReleased {
		buf := b.payload[:cap(b.payload)]
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	requestBufPools[b.class].Put(b)
}
