package wire

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	w := NewWriter(64)
	w.Byte(0xAB)
	w.Uint32(0xDEADBEEF)
	w.Uint64(math.MaxUint64)
	w.Uvarint(300)
	w.BytesPfx([]byte("hello"))
	w.String("world")
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x, want 0xAB", got)
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.BytesPfx(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("BytesPfx = %q", got)
	}
	if got := r.String(); got != "world" {
		t.Errorf("String = %q", got)
	}
	if got := r.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Raw = %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestShortBuffer(t *testing.T) {
	cases := []struct {
		name string
		read func(*Reader)
	}{
		{"byte", func(r *Reader) { r.Byte() }},
		{"uint32", func(r *Reader) { r.Uint32() }},
		{"uint64", func(r *Reader) { r.Uint64() }},
		{"uvarint", func(r *Reader) { r.Uvarint() }},
		{"bytes", func(r *Reader) { r.BytesPfx() }},
		{"bytes copy", func(r *Reader) { r.BytesCopy() }},
		{"string", func(r *Reader) { _ = r.String() }},
		{"raw", func(r *Reader) { r.Raw(5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(nil)
			tc.read(r)
			if !errors.Is(r.Err(), ErrShortBuffer) {
				t.Errorf("Err = %v, want ErrShortBuffer", r.Err())
			}
		})
	}
}

func TestTruncatedBytesPfx(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(100) // declares 100 bytes
	w.Raw([]byte("short"))
	r := NewReader(w.Bytes())
	if got := r.BytesPfx(); got != nil {
		t.Errorf("BytesPfx = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("Err = %v, want ErrShortBuffer", r.Err())
	}
}

func TestLengthLimit(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(MaxBytesLen + 1)
	r := NewReader(w.Bytes())
	r.BytesPfx()
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Errorf("Err = %v, want ErrTooLarge", r.Err())
	}
}

func TestErrorSticky(t *testing.T) {
	r := NewReader([]byte{1})
	r.Uint64() // fails
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	r.Byte() // would succeed on a fresh reader, must stay failed
	if r.Err() != first {
		t.Errorf("error not sticky: %v then %v", first, r.Err())
	}
}

func TestFinishTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Finish(); err == nil {
		t.Error("Finish accepted trailing bytes")
	}
}

func TestBytesCopyDoesNotAlias(t *testing.T) {
	w := NewWriter(0)
	w.BytesPfx([]byte{9, 9, 9})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.BytesCopy()
	buf[len(buf)-1] = 0
	if got[2] != 9 {
		t.Error("BytesCopy aliases the input buffer")
	}
}

func TestQuickUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		w := NewWriter(0)
		w.Uvarint(v)
		if w.Len() != UvarintLen(v) {
			return false
		}
		r := NewReader(w.Bytes())
		return r.Uvarint() == v && r.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(a, b []byte, s string) bool {
		w := NewWriter(0)
		w.BytesPfx(a)
		w.String(s)
		w.BytesPfx(b)
		r := NewReader(w.Bytes())
		ga := r.BytesPfx()
		gs := r.String()
		gb := r.BytesPfx()
		return bytes.Equal(ga, a) && gs == s && bytes.Equal(gb, b) && r.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFixedWidthRoundTrip(t *testing.T) {
	f := func(a byte, b uint32, c uint64) bool {
		w := NewWriter(0)
		w.Byte(a)
		w.Uint32(b)
		w.Uint64(c)
		r := NewReader(w.Bytes())
		return r.Byte() == a && r.Uint32() == b && r.Uint64() == c && r.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtend(t *testing.T) {
	w := NewWriter(8)
	w.Byte(0xAA)
	region := w.Extend(4)
	if len(region) != 4 {
		t.Fatalf("Extend returned %d bytes, want 4", len(region))
	}
	copy(region, []byte{1, 2, 3, 4})
	w.Byte(0xBB)
	want := []byte{0xAA, 1, 2, 3, 4, 0xBB}
	if !bytes.Equal(w.Bytes(), want) {
		t.Errorf("Bytes = %x, want %x", w.Bytes(), want)
	}
	// Growth path: extending beyond capacity must still return a
	// writable window of the final buffer.
	w2 := NewWriter(2)
	w2.Byte(7)
	r2 := w2.Extend(100)
	r2[99] = 42
	if got := w2.Bytes(); len(got) != 101 || got[0] != 7 || got[100] != 42 {
		t.Errorf("grown Extend: len=%d first=%d last=%d", len(got), got[0], got[100])
	}
}

func TestWriterPoolReuse(t *testing.T) {
	w := GetWriter(64)
	w.Raw(bytes.Repeat([]byte{0xFF}, 64))
	PutWriter(w)
	// A pooled writer comes back empty regardless of prior contents.
	w2 := GetWriter(32)
	if w2.Len() != 0 {
		t.Errorf("pooled writer not reset: len=%d", w2.Len())
	}
	PutWriter(w2)
	// Oversized buffers must not be pinned by the pool.
	big := GetWriter(maxPooledWriter + 1)
	PutWriter(big) // must not panic; buffer is dropped
	PutWriter(nil) // tolerated
}

// The batched-frame hot path — get a pooled writer, extend, fill,
// release — must be allocation-free in steady state.
func TestWriterPoolZeroAllocs(t *testing.T) {
	const frame = 4096
	// Warm the pool (and pin to one P so the same pooled writer is seen
	// by every iteration).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	PutWriter(GetWriter(frame))
	if allocs := testing.AllocsPerRun(200, func() {
		w := GetWriter(frame)
		region := w.Extend(frame)
		region[0] = 1
		region[frame-1] = 2
		PutWriter(w)
	}); allocs != 0 {
		t.Errorf("pooled frame encode allocates %v times per op, want 0", allocs)
	}
}
