// Package wire implements the binary encoding used by all ORTOA messages.
//
// The format is deliberately simple: fixed-width little-endian integers,
// unsigned varints for lengths, and length-prefixed byte strings. Every
// decode operation is bounds-checked and returns ErrShortBuffer rather
// than panicking, because decoded bytes arrive from untrusted peers.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Decode errors.
var (
	// ErrShortBuffer reports a message truncated relative to its own
	// length fields.
	ErrShortBuffer = errors.New("wire: short buffer")
	// ErrOverflow reports a varint that does not fit in 64 bits.
	ErrOverflow = errors.New("wire: varint overflow")
	// ErrTooLarge reports a length prefix exceeding the decoder's limit.
	ErrTooLarge = errors.New("wire: length exceeds limit")
)

// MaxBytesLen caps any single length-prefixed byte string. It guards
// against a malicious peer declaring a multi-gigabyte allocation.
const MaxBytesLen = 1 << 28 // 256 MiB

// A Writer appends primitive values to a byte slice. The zero value is
// ready to use; Bytes returns the accumulated encoding.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity pre-allocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// maxPooledWriter caps the buffers the writer pool retains; outliers
// (multi-megabyte batch frames) are left to the garbage collector
// rather than pinned for the process lifetime.
const maxPooledWriter = 4 << 20

var writerPool = sync.Pool{New: func() any { return &Writer{} }}

// GetWriter returns a pooled Writer with at least n bytes of capacity,
// reset to empty. Hot encode paths (one frame per access) use the pool
// so steady-state framing allocates nothing; release with PutWriter.
func GetWriter(n int) *Writer {
	w := writerPool.Get().(*Writer)
	if cap(w.buf) < n {
		w.buf = make([]byte, 0, n)
	} else {
		w.buf = w.buf[:0]
	}
	return w
}

// PutWriter returns w to the pool. The caller must not retain w or any
// slice aliasing its buffer (Bytes, Extend results) past this call; a
// message that outlives the call (e.g. one parked for at-most-once
// replay) must simply not be released.
func PutWriter(w *Writer) {
	if w == nil || cap(w.buf) > maxPooledWriter {
		return
	}
	writerPool.Put(w)
}

// Bytes returns the encoded message. The slice aliases the Writer's
// internal buffer; it must not be modified after further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer for reuse without reallocating.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uint32 appends a fixed-width little-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a fixed-width little-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) BytesPfx(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.buf = append(w.buf, p...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends p verbatim with no length prefix.
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// Extend appends n bytes to the buffer and returns the appended region
// for the caller to fill in place — the zero-copy path for encoders
// that write directly into a frame (e.g. the parallel LBL table build,
// which seals entries into precomputed offsets). The region's contents
// are unspecified (the buffer may be pooled); the caller must overwrite
// every byte before the message is sent. The returned slice aliases the
// Writer's buffer and is invalidated by further writes.
func (w *Writer) Extend(n int) []byte {
	l := len(w.buf)
	if n <= cap(w.buf)-l {
		w.buf = w.buf[:l+n]
	} else {
		w.buf = append(w.buf, make([]byte, n)...)
	}
	return w.buf[l : l+n]
}

// A Reader consumes primitive values from a byte slice. Methods record
// the first error and subsequent calls return zero values, so a decode
// sequence can be written straight-line and checked once via Err.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns an error if a decode error occurred or trailing bytes
// remain. Call it after the last field of a fixed-shape message.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail(ErrShortBuffer)
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// Byte consumes one byte.
func (r *Reader) Byte() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Uint32 consumes a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// Uint64 consumes a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Uvarint consumes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n > 0:
		r.off += n
		return v
	case n == 0:
		r.fail(ErrShortBuffer)
	default:
		r.fail(ErrOverflow)
	}
	return 0
}

// BytesPfx consumes a length-prefixed byte string. The returned slice
// aliases the Reader's buffer.
func (r *Reader) BytesPfx() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		r.fail(ErrTooLarge)
		return nil
	}
	return r.take(int(n))
}

// BytesCopy consumes a length-prefixed byte string and returns a copy
// that does not alias the Reader's buffer.
func (r *Reader) BytesCopy() []byte {
	p := r.BytesPfx()
	if p == nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// String consumes a length-prefixed string.
func (r *Reader) String() string {
	p := r.BytesPfx()
	return string(p)
}

// Raw consumes exactly n bytes with no length prefix. The returned
// slice aliases the Reader's buffer.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// UvarintLen returns the encoded size of v as a varint.
func UvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// TraceRefLen is the fixed length of the trace reference carried in
// every transport frame header: an 8-byte trace id followed by an
// 8-byte parent span id, both little-endian. The field is present —
// and the same length — whether tracing is enabled or not (all zeros
// means "untraced"), so span propagation never changes frame sizes and
// cannot leak operation types through the transcript shape.
const TraceRefLen = 16

// PutTraceRef encodes a trace reference into dst, which must be at
// least TraceRefLen bytes.
func PutTraceRef(dst []byte, traceID, spanID uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], traceID)
	binary.LittleEndian.PutUint64(dst[8:16], spanID)
}

// TraceRef decodes a trace reference from src, which must be at least
// TraceRefLen bytes.
func TraceRef(src []byte) (traceID, spanID uint64) {
	return binary.LittleEndian.Uint64(src[0:8]), binary.LittleEndian.Uint64(src[8:16])
}

// BudgetLen is the fixed length of the deadline budget carried in every
// transport frame header: the caller's remaining time in milliseconds
// as a little-endian uint32. Like the trace reference, the field is
// present — and the same length — whether a deadline exists or not
// (zero means "no deadline"), so deadline propagation never changes
// frame sizes and cannot leak operation types through the transcript
// shape.
const BudgetLen = 4

// PutBudget encodes a deadline budget into dst, which must be at least
// BudgetLen bytes.
func PutBudget(dst []byte, millis uint32) {
	binary.LittleEndian.PutUint32(dst[0:4], millis)
}

// Budget decodes a deadline budget from src, which must be at least
// BudgetLen bytes.
func Budget(src []byte) uint32 {
	return binary.LittleEndian.Uint32(src[0:4])
}
