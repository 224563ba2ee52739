package secretbox

import (
	"bytes"
	"crypto/aes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"
)

func randBytes(t *testing.T, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if _, err := rand.Read(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// refSeal is the entry construction written straight from crypto/aes,
// sharing no code with the sealer: pad = H(L) ‖ H(L ⊕ 1) with
// H(x) = AES_K(x) ⊕ x and K the domain string folded to 16 bytes; the
// entry is body ⊕ pad[:n], then pad[24:32].
func refSeal(label, plaintext []byte) []byte {
	key := make([]byte, 16)
	for i, c := range []byte("ortoa/lbl-entry/v2") {
		key[i%16] ^= c
	}
	pi, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	var pad [32]byte
	for blk := 0; blk < 2; blk++ {
		x := bytes.Clone(label)
		x[0] ^= byte(blk)
		pi.Encrypt(pad[16*blk:], x)
		for i := range x {
			pad[16*blk+i] ^= x[i]
		}
	}
	out := make([]byte, 0, len(plaintext)+8)
	for i, b := range plaintext {
		out = append(out, b^pad[i])
	}
	return append(out, pad[24:]...)
}

// TestLabelSealerKnownAnswer pins the entry format: the sealer, the
// independent reference above and the recorded bytes must agree, on
// AES instructions and on Go's table-driven fallback alike (CI runs
// this with GODEBUG=cpu.aes=off too). A change to these vectors is a
// wire-format change and needs a new labelDomain version.
func TestLabelSealerKnownAnswer(t *testing.T) {
	for _, v := range []struct{ label, plaintext, sealed string }{
		{"00000000000000000000000000000000", "0000000000000000000000000000000000",
			"e975ad40e97bcfc981b997d72e11d23c69302fc1b93563e119"},
		{"000102030405060708090a0b0c0d0e0f", "101112131415161718191a1b1c1d1e1f20",
			"bb2018d1df444c09db13394402877b64f2e76929aac2bd0abf"},
		{"ffeeddccbbaa99887766554433221100", "6f72746f612d6c626c2d656e7472792121",
			"176230aacfd896b201b95327c4b843e70e4f1edcdbf304849b"},
	} {
		label, _ := hex.DecodeString(v.label)
		plaintext, _ := hex.DecodeString(v.plaintext)
		want, _ := hex.DecodeString(v.sealed)
		got, err := sealLabel(label, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("label %s: sealed = %x, want %s", v.label, got, v.sealed)
		}
		if ref := refSeal(label, plaintext); !bytes.Equal(ref, want) {
			t.Errorf("label %s: reference = %x, want %s", v.label, ref, v.sealed)
		}
	}
	// And off the vectors: sealer and reference agree at every length.
	label := randBytes(t, 16)
	for n := 0; n <= MaxLabelPlaintext; n++ {
		plaintext := randBytes(t, n)
		got, err := sealLabel(label, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSeal(label, plaintext); !bytes.Equal(got, want) {
			t.Errorf("plaintext len %d: sealer = %x, reference = %x", n, got, want)
		}
	}
}

// TestLabelPadProperties quick-checks the pad block itself: its two
// halves are outputs of π at different points and must differ, and every
// bit of the label reaches both the tag and the body pad — a label bit
// the tag ignored would let a wrong label open an entry, one the body
// pad ignored would leak it.
func TestLabelPadProperties(t *testing.T) {
	const body = MaxLabelPlaintext
	f := func(label [16]byte) bool {
		var s, flipped LabelSealer
		s.derive(label[:])
		if bytes.Equal(s.pad[:16], s.pad[16:]) {
			return false
		}
		for bit := 0; bit < 128; bit++ {
			l := label
			l[bit/8] ^= 1 << (bit % 8)
			flipped.derive(l[:])
			if bytes.Equal(flipped.pad[body:], s.pad[body:]) || bytes.Equal(flipped.pad[:body], s.pad[:body]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLabelOpenerWrongLabelLeavesDst: a miss is ErrDecrypt and writes
// nothing — the server's trial decryption reuses one plaintext buffer
// across trials.
func TestLabelOpenerWrongLabelLeavesDst(t *testing.T) {
	f := func(label, wrong [16]byte, plaintext [17]byte) bool {
		if label == wrong {
			return true
		}
		sealed, err := sealLabel(label[:], plaintext[:])
		if err != nil {
			return false
		}
		s := NewLabelSealer()
		o, err := s.Opener(wrong[:])
		if err != nil {
			return false
		}
		dst := bytes.Repeat([]byte{0xA5}, len(plaintext))
		return errors.Is(o.OpenInto(dst, sealed), ErrDecrypt) && bytes.Equal(dst, bytes.Repeat([]byte{0xA5}, len(plaintext)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLabelOpenerRejects(t *testing.T) {
	label := randBytes(t, 16)
	plaintext := randBytes(t, 16)
	s := NewLabelSealer()
	sealed := make([]byte, len(plaintext)+LabelTagSize)
	if err := s.SealInto(sealed, label, plaintext); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(plaintext))

	wrong, err := s.Opener(randBytes(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.OpenInto(dst, sealed); !errors.Is(err, ErrDecrypt) {
		t.Errorf("wrong label: err = %v, want ErrDecrypt", err)
	}

	right, err := s.Opener(label)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sealed {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 0x01
		// Flips in the pad-covered prefix change the plaintext, not the
		// tag; only tag flips are detectable — the §5.4 proxy-side
		// integrity check covers the rest.
		if i >= len(plaintext) {
			if err := right.OpenInto(dst, mut); !errors.Is(err, ErrDecrypt) {
				t.Errorf("tag flip at %d: err = %v, want ErrDecrypt", i, err)
			}
		}
	}

	if err := right.OpenInto(dst, sealed[:LabelTagSize-1]); !errors.Is(err, ErrDecrypt) {
		t.Errorf("short input: err = %v, want ErrDecrypt", err)
	}
	if err := right.OpenInto(make([]byte, len(plaintext)+1), sealed); err == nil {
		t.Error("mis-sized dst accepted")
	}
}

func TestLabelSealerSizeChecks(t *testing.T) {
	s := NewLabelSealer()
	buf := make([]byte, 64)
	if err := s.SealInto(buf[:16+LabelTagSize], make([]byte, 15), make([]byte, 16)); err == nil {
		t.Error("short label accepted")
	}
	if err := s.SealInto(buf, make([]byte, 16), make([]byte, MaxLabelPlaintext+1)); err == nil {
		t.Error("oversized plaintext accepted")
	}
	if err := s.SealInto(buf[:10], make([]byte, 16), make([]byte, 16)); err == nil {
		t.Error("mis-sized dst accepted")
	}
	if _, err := s.Opener(make([]byte, 8)); err == nil {
		t.Error("Opener accepted short label")
	}
}

// The sealer/opener pair exists to make the table-build and
// trial-decryption hot loops allocation-free; pin that property.
func TestLabelSealerZeroAllocs(t *testing.T) {
	label := randBytes(t, 16)
	plaintext := randBytes(t, 17)
	s := NewLabelSealer()
	dst := make([]byte, len(plaintext)+LabelTagSize)
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.SealInto(dst, label, plaintext); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SealInto allocates %v times per op, want 0", allocs)
	}

	out := make([]byte, len(plaintext))
	if allocs := testing.AllocsPerRun(200, func() {
		o, err := s.Opener(label)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.OpenInto(out, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Opener+OpenInto allocates %v times per op, want 0", allocs)
	}
}
