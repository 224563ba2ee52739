// Package prf provides the pseudorandom functions ORTOA uses to encode
// object keys and to derive the bit labels of LBL-ORTOA (§2.2, §5).
//
// Key encoding and per-object key derivation are HMAC-SHA256 with
// domain-separated inputs; the per-object label schedule (thousands of
// labels per LBL access) is AES-128 keyed by an HMAC-derived object
// key, laid out so that one row of it — one counter and bit value over
// a run of groups — is one AES-CTR keystream (see LabelGen). All
// outputs are 128 bits — the label size r used throughout the paper's
// cost analysis (§6.3.3). Determinism is the load-bearing property: the
// proxy must be able to regenerate the exact labels the server stores.
package prf

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// Size is the output size in bytes of every PRF in this package
// (r = 128 bits in the paper's notation).
const Size = 16

// KeySize is the size in bytes of a PRF secret key.
const KeySize = 32

// Domain separation tags. Each distinct use of the master secret gets
// its own tag so outputs from one role can never collide with another.
const (
	tagKeyEncode = 0x01 // PRF(k): server-side key encoding
	tagLabel     = 0x02 // secret labels for LBL-ORTOA
	tagPermute   = 0x03 // point-and-permute bits (§10.2)
	tagDummy     = 0x04 // dummy value padding for TEE reads
	tagLabelKey  = 0x05 // per-object AES key for LabelGen
)

// An Output is a 128-bit PRF output (a secret label, an encoded key, …).
type Output [Size]byte

// Equal reports whether two outputs are equal in constant time.
func (o Output) Equal(p Output) bool {
	return subtle.ConstantTimeCompare(o[:], p[:]) == 1
}

// String renders the output as hex for logs and tests.
func (o Output) String() string { return fmt.Sprintf("%x", o[:]) }

// A PRF is a keyed pseudorandom function family. It is safe for
// concurrent use: each invocation constructs a fresh HMAC state.
type PRF struct {
	key [KeySize]byte
}

// New returns a PRF keyed with key. The key must be KeySize bytes.
func New(key []byte) (*PRF, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("prf: key must be %d bytes, got %d", KeySize, len(key))
	}
	p := &PRF{}
	copy(p.key[:], key)
	return p, nil
}

// NewRandom returns a PRF keyed with a fresh random key.
func NewRandom() *PRF {
	var key [KeySize]byte
	if _, err := rand.Read(key[:]); err != nil {
		// crypto/rand never fails on supported platforms; treat
		// failure as unrecoverable rather than degrade silently.
		panic("prf: crypto/rand failed: " + err.Error())
	}
	p := &PRF{key: key}
	return p
}

// Key returns a copy of the PRF's secret key, for persistence.
func (p *PRF) Key() []byte {
	out := make([]byte, KeySize)
	copy(out, p.key[:])
	return out
}

func (p *PRF) eval(tag byte, parts ...[]byte) Output {
	mac := hmac.New(sha256.New, p.key[:])
	mac.Write([]byte{tag})
	var lenBuf [8]byte
	for _, part := range parts {
		// Length-prefix every part so concatenations are injective.
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(part)))
		mac.Write(lenBuf[:])
		mac.Write(part)
	}
	var out Output
	copy(out[:], mac.Sum(nil))
	return out
}

// EncodeKey computes PRF(k), the encoded form under which an object's
// key is stored at the untrusted server (§2.2).
func (p *PRF) EncodeKey(key string) Output {
	return p.eval(tagKeyEncode, []byte(key))
}

// Label computes the secret label for the y-bit group at index group of
// object key's value, for bit pattern bits, at access counter ct (§5.2
// step 1.2/1.3). bits packs the group's plaintext bits little-end
// first. Callers generating many labels for one object should use
// LabelGen, which amortizes the per-object derivation.
func (p *PRF) Label(key string, group int, bits uint8, ct uint64) Output {
	return p.LabelGen(key).Label(group, bits, ct)
}

// PermuteBits derives the y one-time-pad bits r1…ry that link table
// positions to labels in the point-and-permute optimization (§10.2).
// The result's low y bits are used. See LabelGen for the bulk path.
func (p *PRF) PermuteBits(key string, group int, ct uint64) uint8 {
	return p.LabelGen(key).PermuteBits(group, ct)
}

// A LabelGen produces the label schedule of one object. LBL-ORTOA
// derives thousands of labels per access (2^y per group at the old
// counter and 2^y at the new one, plus two permute words), so the
// per-object PRF is instantiated once — an HMAC-derived AES-128 key —
// and every label is the encryption of one counter block:
//
//	ct (8 bytes, big-endian) ‖ domain (1) ‖ bits (1) ‖ group (6, big-endian)
//
// The group sits in the low bytes, so the labels of one (counter,
// domain, bit value) over consecutive groups — one row of the schedule —
// are consecutive AES-CTR keystream blocks, which Row derives eight
// blocks at a time on hosts with AES instructions. Label and PermuteBits
// encrypt one block of the same layout and return exactly what a row
// yields at that position. AES as a PRF is standard up to the 2^64
// birthday bound, far beyond any deployment counter; groups stay below
// 2^48, so no row runs into the next one's bit value.
//
// A LabelGen is NOT safe for concurrent use through Label and
// PermuteBits, which share a scratch block so single-label derivation
// is allocation-free. LabelRow and PermuteRow only read the key
// schedule: any number of goroutines may open rows of one generator at
// once, and each row is its own.
type LabelGen struct {
	block   cipher.Block
	in, out [16]byte
}

// LabelGen returns the label generator for an object key.
func (p *PRF) LabelGen(key string) *LabelGen {
	seed := p.eval(tagLabelKey, []byte(key))
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		// aes.NewCipher only fails on bad key sizes; seed is 16 bytes.
		panic("prf: " + err.Error())
	}
	return &LabelGen{block: block}
}

// putCounter writes the counter block of (ct, domain, bits, group).
func putCounter(dst *[16]byte, domain, bits uint8, group int, ct uint64) {
	binary.BigEndian.PutUint64(dst[0:8], ct)
	dst[8] = domain
	dst[9] = bits
	binary.BigEndian.PutUint16(dst[10:12], uint16(uint64(group)>>32))
	binary.BigEndian.PutUint32(dst[12:16], uint32(group))
}

// Label computes the secret label for (group, bits, ct).
func (g *LabelGen) Label(group int, bits uint8, ct uint64) Output {
	putCounter(&g.in, tagLabel, bits, group, ct)
	g.block.Encrypt(g.out[:], g.in[:])
	return g.out
}

// PermuteBits derives the point-and-permute pad bits for (group, ct):
// the first byte of the block PermuteRow yields there.
func (g *LabelGen) PermuteBits(group int, ct uint64) uint8 {
	putCounter(&g.in, tagPermute, 0, group, ct)
	g.block.Encrypt(g.out[:], g.in[:])
	return g.out[0]
}

// A Row is one row of an object's label schedule, read from a start
// group onward: each Fill continues where the last one stopped.
type Row struct{ s cipher.Stream }

// LabelRow opens the row of labels for bit value bits at counter ct,
// starting at group g0: its k-th block is Label(g0+k, bits, ct).
func (g *LabelGen) LabelRow(g0 int, bits uint8, ct uint64) Row {
	return g.row(tagLabel, bits, g0, ct)
}

// PermuteRow opens the row of permute blocks at counter ct, starting at
// group g0: the first byte of its k-th block is PermuteBits(g0+k, ct).
func (g *LabelGen) PermuteRow(g0 int, ct uint64) Row {
	return g.row(tagPermute, 0, g0, ct)
}

func (g *LabelGen) row(domain, bits uint8, g0 int, ct uint64) Row {
	var iv [16]byte
	putCounter(&iv, domain, bits, g0, ct)
	return Row{cipher.NewCTR(g.block, iv[:])}
}

// Fill writes the row's next len(dst)/Size blocks into dst, whose
// length is a multiple of Size.
func (r Row) Fill(dst []byte) {
	clear(dst)
	r.s.XORKeyStream(dst, dst)
}

// DummyValue derives a deterministic pseudorandom value of length n,
// used as the indistinguishable v_new payload of TEE-ORTOA reads (§4.1).
func (p *PRF) DummyValue(key string, ct uint64, n int) []byte {
	out := make([]byte, 0, n)
	var ctr [8]byte
	binary.LittleEndian.PutUint64(ctr[:], ct)
	for block := uint64(0); len(out) < n; block++ {
		var blk [8]byte
		binary.LittleEndian.PutUint64(blk[:], block)
		o := p.eval(tagDummy, []byte(key), ctr[:], blk[:])
		out = append(out, o[:]...)
	}
	return out[:n]
}
