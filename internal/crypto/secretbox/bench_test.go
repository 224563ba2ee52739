package secretbox

import (
	"crypto/rand"
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

// BenchmarkPadGroup is the point-and-permute pad both tiers run: one
// group's four entries per call, through the π kernel where it runs. The
// 640-group case pads a 160 B value's table, every label distinct, as
// the proxy's build does. ns/block is ns/op over the π blocks of one op.
func BenchmarkPadGroup(b *testing.B) {
	for _, groups := range []int{1, 640} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			src := make([]byte, 2*groups*GroupPads*PadSize)
			if _, err := rand.Read(src); err != nil {
				b.Fatal(err)
			}
			labels := make([][GroupPads]*[PadSize]byte, groups)
			bodies := make([][GroupPads]*[PadSize]byte, groups)
			for g := range labels {
				for e := range labels[g] {
					i := (g*GroupPads + e) * 2 * PadSize
					labels[g][e], bodies[g][e] = (*[PadSize]byte)(src[i:]), (*[PadSize]byte)(src[i+PadSize:])
				}
			}
			table := make([][GroupPads * PadSize]byte, groups)
			s := NewLabelSealer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for g := range table {
					s.PadGroup(&table[g], &labels[g], &bodies[g])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(groups*GroupPads), "ns/block")
		})
	}
}

// BenchmarkPermuteGroups is the proxy's point-and-permute table build in
// the fused kernel alone: a 160 B value's 640 groups and a 4 KiB value's
// 16,384, a write. ns/block is ns/op over the twelve AES blocks of a
// group — eight labels and four π blocks — so it reads against the raw
// AES-NI floor. It is skipped where no kernel runs.
func BenchmarkPermuteGroups(b *testing.B) {
	for _, groups := range []int{640, 16384} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			var key [16]byte
			var ctrs [2 * GroupPads][PadSize]byte
			if _, err := rand.Read(key[:]); err != nil {
				b.Fatal(err)
			}
			for i := range ctrs {
				ctrs[i][9] = byte(i)
			}
			table := make([]byte, groups*GroupPads*PadSize)
			news := make([]byte, groups*GroupPads*PadSize)
			olds := make([]byte, groups*GroupPads)
			value := make([]byte, groups/4)
			if !PermuteGroups(key, &ctrs, table, news, olds, value, groups, 0, groups, 0) {
				b.Skip("no point-and-permute kernel in this build or on this CPU")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				PermuteGroups(key, &ctrs, table, news, olds, value, groups, 0, groups, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(12*groups), "ns/block")
		})
	}
}
