package prf

import "testing"

func BenchmarkEncodeKey(b *testing.B) {
	p := NewRandom()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.EncodeKey("key-00001234")
	}
}

func BenchmarkLabelGenCreate(b *testing.B) {
	p := NewRandom()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.LabelGen("key-00001234")
	}
}

// BenchmarkLabel is the single-block path: the one Label call behind each
// counter a stale answer's search tries (core's locate), and the per-block
// reference the rows are held to.
func BenchmarkLabel(b *testing.B) {
	gen := NewRandom().LabelGen("key-00001234")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gen.Label(i&1023, uint8(i&3), uint64(i))
	}
}

func BenchmarkPermuteBits(b *testing.B) {
	gen := NewRandom().LabelGen("key-00001234")
	for i := 0; i < b.N; i++ {
		_ = gen.PermuteBits(i&1023, uint64(i))
	}
}

// BenchmarkLabelSlowPath measures the convenience method that rebuilds
// the generator per call, to document why LabelGen exists.
func BenchmarkLabelSlowPath(b *testing.B) {
	p := NewRandom()
	for i := 0; i < b.N; i++ {
		_ = p.Label("key-00001234", i&1023, uint8(i&3), uint64(i))
	}
}

// BenchmarkAccessLabelSchedule160B times the label schedule of one
// 160-byte access (y = 2, point-and-permute, 640 groups) as core's table
// build derives it: the four counter-ct+1 label rows each in one fill of
// the 40 KB schedule, the four counter-ct label rows and both permute
// rows 32 groups at a time — 6,400 blocks from ten streams.
func BenchmarkAccessLabelSchedule160B(b *testing.B) {
	const groups, chunk = 640, 32
	p := NewRandom()
	news := make([]byte, 4*groups*Size)
	buf := make([]byte, 6*chunk*Size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen := p.LabelGen("key-00001234")
		ct := uint64(i)
		var rows [6]Row
		for bits := uint8(0); bits < 4; bits++ {
			gen.LabelRow(0, bits, ct+1).Fill(news[int(bits)*groups*Size : (int(bits)+1)*groups*Size])
			rows[bits] = gen.LabelRow(0, bits, ct)
		}
		rows[4], rows[5] = gen.PermuteRow(0, ct), gen.PermuteRow(0, ct+1)
		for g := 0; g < groups; g += chunk {
			for j, r := range rows {
				r.Fill(buf[j*chunk*Size : (j+1)*chunk*Size])
			}
		}
	}
}
