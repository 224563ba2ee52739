// Package secretbox holds the two encryption roles in ORTOA.
//
// Box is the general-purpose authenticated encryption (AES-GCM) used
// for stored values (TEE-ORTOA, the 2RTT baseline) and for
// client↔proxy payloads. Every Seal draws a fresh random nonce, so
// re-encrypting the same value yields an unlinkable ciphertext — the
// property the 2RTT baseline and TEE-ORTOA rely on for read/write
// indistinguishability (§1.1, §4.1).
//
// LabelSealer encrypts the label-keyed entries of LBL-ORTOA's
// encryption tables the way garbled-circuit implementations encrypt
// garbled rows (JustGarble and its lineage): a 32-byte pad-and-tag
// block is derived from the 128-bit label L by fixed-key AES-128 in
// Matyas–Meyer–Oseas form, H(x) = π(x) ⊕ x over the two inputs x₀ = L
// and x₁ = L ⊕ 1, with π keyed once by a public constant. An entry is
// its body XOR the head of that block, then the block's last 8 bytes
// as a recognition tag. The precondition is one pad per label: a label
// keys exactly one entry ever, which the label schedule guarantees
// (every access consumes its labels and installs fresh ones), so the
// pad is a one-time pad and a single derivation yields both it and the
// tag. Security: Guo–Katz–Wang–Yu (2020) prove π(x) ⊕ x correlation
// robust when π is modelled as a random permutation — more than this
// use needs, since ORTOA's labels are independent PRF outputs with no
// global offset relating them — so without L the block is
// indistinguishable from random, and an adversary's advantage is
// bounded by guessing the 128-bit label, exactly as for a hash-derived
// pad. The tag is what lets the server recognize the one entry its
// stored label opens (§5.2 step 2.1); end-to-end integrity against a
// tampering server comes from the proxy-side label check of §5.4, which
// accepts only labels its PRF could have produced. Two AES blocks per
// entry keep the proxy's 2^y·ℓ/y seals per access well under the
// ~2 ms/object the paper reports (§6.3.3); an AES-GCM instance per
// entry would dominate the access path, and so did the SHA-256 this
// replaced. On hardware without AES instructions Go's table-driven AES
// makes the pad no faster than a hash and no less constant-time than
// prf.LabelGen, which already runs AES on secret inputs.
package secretbox

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// Overhead is the ciphertext expansion of Seal: nonce plus GCM tag.
const Overhead = NonceSize + TagSize

// NonceSize is the GCM nonce size in bytes.
const NonceSize = 12

// TagSize is the GCM authentication tag size in bytes.
const TagSize = 16

// ErrDecrypt reports an authentication failure. For LBL-ORTOA this is
// the common case: the server tries entries its stored label cannot
// open.
var ErrDecrypt = errors.New("secretbox: message authentication failed")

// A Box encrypts and decrypts with a fixed AES-GCM key and random
// nonces. It is safe for concurrent use.
type Box struct {
	aead cipher.AEAD
}

// NewBox returns a Box for key, which must be 16, 24, or 32 bytes.
func NewBox(key []byte) (*Box, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("secretbox: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("secretbox: %w", err)
	}
	return &Box{aead: aead}, nil
}

// NewRandomKey returns a fresh 16-byte AES-128 key.
func NewRandomKey() []byte {
	key := make([]byte, 16)
	if _, err := rand.Read(key); err != nil {
		panic("secretbox: crypto/rand failed: " + err.Error())
	}
	return key
}

// Seal encrypts plaintext with a fresh random nonce and returns
// nonce‖ciphertext‖tag. len(result) = len(plaintext) + Overhead.
func (b *Box) Seal(plaintext []byte) []byte {
	out := make([]byte, NonceSize, NonceSize+len(plaintext)+TagSize)
	if _, err := rand.Read(out); err != nil {
		panic("secretbox: crypto/rand failed: " + err.Error())
	}
	return b.aead.Seal(out, out[:NonceSize], plaintext, nil)
}

// Open decrypts a Seal result. It returns ErrDecrypt if the ciphertext
// is malformed or fails authentication.
func (b *Box) Open(sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, ErrDecrypt
	}
	pt, err := b.aead.Open(nil, sealed[:NonceSize], sealed[NonceSize:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// MaxLabelPlaintext is the largest SealInto body: the 32-byte pad block
// must cover the body plus the tag.
const MaxLabelPlaintext = padSize - LabelTagSize

// LabelTagSize is the recognition tag SealInto appends.
const LabelTagSize = 8

// padSize is the pad-and-tag block of one label: two AES blocks.
const padSize = 2 * aes.BlockSize

// labelDomain names the entry format. Bumping it re-keys π, so entries
// of two formats never open each other; internal/core stamps the same
// version into every request so a mixed pair is refused outright.
const labelDomain = "ortoa/lbl-entry/v2"

// pi is the fixed-key permutation π of the entry pad: AES-128 under a
// public constant, the domain string folded to key length. Nothing
// about the key is secret; the pad's secrecy comes from the label.
var pi = func() cipher.Block {
	var key [aes.BlockSize]byte
	for i := 0; i < len(labelDomain); i++ {
		key[i%len(key)] ^= labelDomain[i]
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("secretbox: " + err.Error()) // only on a bad key size
	}
	return block
}()

// A LabelSealer seals and opens the label-keyed entries of LBL-ORTOA's
// encryption tables, writing into caller-owned slots: the table build
// seals 2^y·ℓ/y fixed-size entries per access into precomputed offsets
// of one request buffer, and with a sealer that inner loop performs
// zero allocations.
//
// A LabelSealer is NOT safe for concurrent use (it carries the block
// scratch π reads and writes); each table-build or trial-decryption
// worker owns one.
type LabelSealer struct {
	x, pad [padSize]byte
}

// NewLabelSealer returns a ready sealer.
func NewLabelSealer() LabelSealer { return LabelSealer{} }

// derive leaves label's one-time pad-and-tag block in s.pad: the
// Matyas–Meyer–Oseas hash π(x) ⊕ x of x₀ = L and x₁ = L ⊕ 1, one block
// each. The two inputs differ in one bit, so the blocks are outputs of
// π at distinct points.
func (s *LabelSealer) derive(label []byte) {
	// Word-wise and unrolled: done through slice helpers, the copies and
	// XORs of a 32-byte block cost as much as a π call.
	le := binary.LittleEndian
	l0, l1 := le.Uint64(label), le.Uint64(label[8:])
	le.PutUint64(s.x[0:], l0)
	le.PutUint64(s.x[8:], l1)
	le.PutUint64(s.x[16:], l0^1)
	le.PutUint64(s.x[24:], l1)
	pi.Encrypt(s.pad[:aes.BlockSize], s.x[:aes.BlockSize])
	pi.Encrypt(s.pad[aes.BlockSize:], s.x[aes.BlockSize:])
	le.PutUint64(s.pad[0:], le.Uint64(s.pad[0:])^l0)
	le.PutUint64(s.pad[8:], le.Uint64(s.pad[8:])^l1)
	le.PutUint64(s.pad[16:], le.Uint64(s.pad[16:])^l0^1)
	le.PutUint64(s.pad[24:], le.Uint64(s.pad[24:])^l1)
}

// SealInto encrypts plaintext (≤ MaxLabelPlaintext bytes) under the
// 16-byte one-time label into dst, which must be exactly
// len(plaintext)+LabelTagSize bytes: the body XOR the head of the
// label's pad block, then the block's last LabelTagSize bytes as the
// recognition tag. The caller must guarantee each label keys at most
// one SealInto — LBL-ORTOA's label schedule does (a label is consumed
// and replaced on every access). It allocates nothing.
func (s *LabelSealer) SealInto(dst, label, plaintext []byte) error {
	if len(label) != 16 {
		return fmt.Errorf("secretbox: label must be 16 bytes, got %d", len(label))
	}
	if len(plaintext) > MaxLabelPlaintext {
		return fmt.Errorf("secretbox: label plaintext %d exceeds %d bytes", len(plaintext), MaxLabelPlaintext)
	}
	if len(dst) != len(plaintext)+LabelTagSize {
		return fmt.Errorf("secretbox: seal slot is %d bytes, want %d", len(dst), len(plaintext)+LabelTagSize)
	}
	s.derive(label)
	xorBody(dst, plaintext, s.pad[:len(plaintext)])
	copy(dst[len(plaintext):], s.pad[padSize-LabelTagSize:])
	return nil
}

// A LabelOpener amortizes trial decryption under one label. LBL-ORTOA's
// server holds a single stored label per group and tries up to 2^y
// table entries against it; the label's pad block — the two π calls of
// the construction — is computed once for all of those trials, each of
// which is then a tag comparison.
type LabelOpener struct {
	pad [padSize]byte
}

// Opener derives the trial-decryption state for a 16-byte label.
func (s *LabelSealer) Opener(label []byte) (LabelOpener, error) {
	if len(label) != 16 {
		return LabelOpener{}, fmt.Errorf("secretbox: label must be 16 bytes, got %d", len(label))
	}
	s.derive(label)
	return LabelOpener{pad: s.pad}, nil
}

// OpenInto attempts to open sealed into dst, which must be exactly
// len(sealed)-LabelTagSize bytes. It returns ErrDecrypt (with dst
// untouched) when the opener's label does not match — the common case
// for the server's trial decryption, and its signal for "not my entry"
// — and allocates nothing on any path.
func (o *LabelOpener) OpenInto(dst, sealed []byte) error {
	n := len(sealed) - LabelTagSize
	if n < 0 || n > MaxLabelPlaintext {
		return ErrDecrypt
	}
	if len(dst) != n {
		return fmt.Errorf("secretbox: open slot is %d bytes, want %d", len(dst), n)
	}
	if subtle.ConstantTimeCompare(sealed[n:], o.pad[padSize-LabelTagSize:]) != 1 {
		return ErrDecrypt
	}
	xorBody(dst, sealed[:n], o.pad[:n])
	return nil
}

// xorBody sets dst[i] = body[i] ^ pad[i] over pad's length, at most
// MaxLabelPlaintext bytes: two or three words and a short tail, which
// inline where a call into subtle.XORBytes costs more than the XOR.
func xorBody(dst, body, pad []byte) {
	le := binary.LittleEndian
	dst, body = dst[:len(pad)], body[:len(pad)]
	i := 0
	for ; i+8 <= len(pad); i += 8 {
		le.PutUint64(dst[i:], le.Uint64(body[i:])^le.Uint64(pad[i:]))
	}
	for ; i < len(pad); i++ {
		dst[i] = body[i] ^ pad[i]
	}
}
