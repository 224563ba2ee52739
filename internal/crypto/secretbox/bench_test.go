package secretbox

import (
	"fmt"
	"testing"
)

func BenchmarkSeal(b *testing.B) {
	box, _ := NewBox(NewRandomKey())
	for _, size := range []int{16, 160, 600} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			msg := make([]byte, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = box.Seal(msg)
			}
		})
	}
}

func BenchmarkOpen(b *testing.B) {
	box, _ := NewBox(NewRandomKey())
	msg := make([]byte, 160)
	ct := box.Seal(msg)
	b.SetBytes(160)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := box.Open(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelSeal is the proxy's per-entry cost: 2^y·ℓ/y of these
// per LBL access (2560 at the paper's 160-byte default).
func BenchmarkLabelSeal(b *testing.B) {
	label := NewRandomKey()
	plain := make([]byte, 17)
	slot := make([]byte, len(plain)+LabelTagSize)
	s := NewLabelSealer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.SealInto(slot, label, plain); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelOpenHit is the server's point-and-permute cost: one
// pad derivation and one opened entry per group.
func BenchmarkLabelOpenHit(b *testing.B) {
	label := NewRandomKey()
	plain := make([]byte, 17)
	ct, _ := sealLabel(label, plain)
	s := NewLabelSealer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, _ := s.Opener(label)
		if err := o.OpenInto(plain, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelOpenMiss is the try-decrypt failure path the
// non-point-and-permute variants pay (§10.2's motivation): the pad is
// derived once per group, so a miss is a tag comparison.
func BenchmarkLabelOpenMiss(b *testing.B) {
	plain := make([]byte, 17)
	ct, _ := sealLabel(NewRandomKey(), plain)
	s := NewLabelSealer()
	wrong, _ := s.Opener(NewRandomKey())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wrong.OpenInto(plain, ct) == nil {
			b.Fatal("miss decrypted")
		}
	}
}
