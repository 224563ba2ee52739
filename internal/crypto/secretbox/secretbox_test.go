package secretbox

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newTestBox(t *testing.T) *Box {
	t.Helper()
	b, err := NewBox(NewRandomKey())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSealOpenRoundTrip(t *testing.T) {
	b := newTestBox(t)
	msg := []byte("the quick brown fox")
	ct := b.Seal(msg)
	if len(ct) != len(msg)+Overhead {
		t.Errorf("ciphertext length = %d, want %d", len(ct), len(msg)+Overhead)
	}
	pt, err := b.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Errorf("Open = %q, want %q", pt, msg)
	}
}

func TestSealFreshness(t *testing.T) {
	// Re-encrypting the same plaintext must give an unlinkable
	// ciphertext — the indistinguishability the 2RTT baseline and
	// TEE-ORTOA rely on.
	b := newTestBox(t)
	msg := []byte("same value")
	if bytes.Equal(b.Seal(msg), b.Seal(msg)) {
		t.Error("two Seals of the same plaintext are identical")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	b := newTestBox(t)
	ct := b.Seal([]byte("payload"))
	for i := range ct {
		mut := append([]byte(nil), ct...)
		mut[i] ^= 0x01
		if _, err := b.Open(mut); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("flip at byte %d: err = %v, want ErrDecrypt", i, err)
		}
	}
}

func TestOpenRejectsShortInput(t *testing.T) {
	b := newTestBox(t)
	for n := 0; n < Overhead; n++ {
		if _, err := b.Open(make([]byte, n)); !errors.Is(err, ErrDecrypt) {
			t.Errorf("len %d: err = %v, want ErrDecrypt", n, err)
		}
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	b1, b2 := newTestBox(t), newTestBox(t)
	ct := b1.Seal([]byte("secret"))
	if _, err := b2.Open(ct); !errors.Is(err, ErrDecrypt) {
		t.Errorf("wrong key: err = %v, want ErrDecrypt", err)
	}
}

func TestNewBoxKeySizes(t *testing.T) {
	for _, n := range []int{16, 24, 32} {
		if _, err := NewBox(make([]byte, n)); err != nil {
			t.Errorf("NewBox(%d bytes): %v", n, err)
		}
	}
	for _, n := range []int{0, 8, 15, 17, 33} {
		if _, err := NewBox(make([]byte, n)); err == nil {
			t.Errorf("NewBox(%d bytes) accepted invalid key", n)
		}
	}
}

// sealLabel and openLabel are the allocating forms of the sealer, for
// tests that want a ciphertext or a plaintext back.
func sealLabel(label, plaintext []byte) ([]byte, error) {
	s := NewLabelSealer()
	sealed := make([]byte, len(plaintext)+LabelTagSize)
	return sealed, s.SealInto(sealed, label, plaintext)
}

func openLabel(label, sealed []byte) ([]byte, error) {
	s := NewLabelSealer()
	o, err := s.Opener(label)
	if err != nil {
		return nil, err
	}
	plaintext := make([]byte, max(len(sealed)-LabelTagSize, 0))
	return plaintext, o.OpenInto(plaintext, sealed)
}

func TestLabelRoundTrip(t *testing.T) {
	label := NewRandomKey()
	msg := []byte("new-label-plus-bits")
	ct, err := sealLabel(label, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(msg)+LabelTagSize {
		t.Errorf("label ciphertext length = %d, want %d", len(ct), len(msg)+LabelTagSize)
	}
	pt, err := openLabel(label, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Errorf("open = %q, want %q", pt, msg)
	}
}

func TestLabelOpenRejectsOversize(t *testing.T) {
	if _, err := openLabel(NewRandomKey(), make([]byte, MaxLabelPlaintext+LabelTagSize+1)); !errors.Is(err, ErrDecrypt) {
		t.Errorf("oversize ciphertext: err = %v, want ErrDecrypt", err)
	}
}

func TestLabelSealDeterministic(t *testing.T) {
	// Same label + same plaintext → same ciphertext. The protocol never
	// reuses a label, but the property should hold so table
	// construction is reproducible in tests.
	label := NewRandomKey()
	a, _ := sealLabel(label, []byte("m"))
	b, _ := sealLabel(label, []byte("m"))
	if !bytes.Equal(a, b) {
		t.Error("sealing is not deterministic for a fixed label")
	}
}

func TestQuickSealOpen(t *testing.T) {
	b := newTestBox(t)
	f := func(msg []byte) bool {
		pt, err := b.Open(b.Seal(msg))
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLabelSealOpen(t *testing.T) {
	label := NewRandomKey()
	f := func(msg []byte) bool {
		if len(msg) > MaxLabelPlaintext {
			msg = msg[:MaxLabelPlaintext]
		}
		ct, err := sealLabel(label, msg)
		if err != nil {
			return false
		}
		pt, err := openLabel(label, ct)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
