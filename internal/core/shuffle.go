package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
)

// This file provides the randomness for the §5.2 step-1.5 table
// shuffle. The shuffle is security-critical: the encryption-table
// entries of the basic and space-optimized LBL variants are ordered by
// bit value before shuffling, so a predictable permutation would let
// the server correlate entry positions with plaintext bits across
// accesses. The permutation must therefore be drawn from a
// cryptographically strong source — math/rand's default generators are
// seedable and predictable and MUST NOT be used here.
//
// Two sources satisfy that bar. newCryptoShuffler draws directly from
// crypto/rand. The parallel table build instead derives one shuffleSeed
// per request from crypto/rand and expands it with AES-CTR, one lane
// per worker: the stream is as unpredictable as AES under a random key,
// each worker's lane is disjoint by construction, and expansion costs
// no syscalls — getrandom reads were a measurable slice of the
// sequential build.

// A cryptoShuffler produces uniform random integers and Fisher–Yates
// permutations from a buffered crypto-strength source, so a request
// that shuffles hundreds of groups costs a handful of refills rather
// than one draw per swap. Not safe for concurrent use; callers create
// one per request (or per worker).
type cryptoShuffler struct {
	refill func(p []byte)
	buf    [512]byte
	off    int
}

// newCryptoShuffler returns a shuffler backed directly by crypto/rand,
// with an empty buffer; the first draw fills it.
func newCryptoShuffler() cryptoShuffler {
	s := cryptoShuffler{refill: osRandom}
	s.off = len(s.buf)
	return s
}

func osRandom(p []byte) {
	if _, err := rand.Read(p); err != nil {
		// crypto/rand never fails on supported platforms; a silent
		// fallback to weak randomness would break obliviousness.
		panic("core: crypto/rand failed: " + err.Error())
	}
}

// A shuffleSeed keys a family of deterministic crypto-strength shuffle
// streams. One seed is drawn per table build; each worker expands its
// own lane.
type shuffleSeed [16]byte

// newShuffleSeed draws a fresh random seed.
func newShuffleSeed() shuffleSeed {
	var s shuffleSeed
	osRandom(s[:])
	return s
}

// stream returns a shuffler drawing from AES-128-CTR keyed by the seed.
// The lane index occupies the top of the IV and CTR increments from the
// bottom, so distinct lanes use disjoint counter ranges: workers of one
// build share a single 16-byte seed yet never reuse a stream block.
func (seed shuffleSeed) stream(lane uint32) cryptoShuffler {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic("core: " + err.Error()) // 16-byte key; cannot fail
	}
	var iv [16]byte
	binary.LittleEndian.PutUint32(iv[:4], lane)
	ctr := cipher.NewCTR(block, iv[:])
	s := cryptoShuffler{refill: func(p []byte) {
		clear(p)
		ctr.XORKeyStream(p, p)
	}}
	s.off = len(s.buf)
	return s
}

func (s *cryptoShuffler) uint64() uint64 {
	if s.off+8 > len(s.buf) {
		s.refill(s.buf[:])
		s.off = 0
	}
	v := binary.LittleEndian.Uint64(s.buf[s.off:])
	s.off += 8
	return v
}

// intN returns a uniform integer in [0, n) via rejection sampling, so
// the permutation is unbiased as well as unpredictable.
func (s *cryptoShuffler) intN(n int) int {
	if n <= 0 {
		panic("core: intN with non-positive n")
	}
	max := uint64(n)
	// Reject draws from the tail that would bias v % max.
	limit := (^uint64(0)) - (^uint64(0))%max
	for {
		if v := s.uint64(); v < limit {
			return int(v % max)
		}
	}
}

// shuffle performs a crypto-strength Fisher–Yates shuffle of n
// elements.
func (s *cryptoShuffler) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.intN(i+1))
	}
}

// perm fills out[:n] with a uniform random permutation of [0, n) using
// the inside-out Fisher–Yates construction. The table build uses it as
// a slot map — entry b is sealed directly at offset out[b] — so entries
// land shuffled without a post-hoc swap pass over sealed bytes.
func (s *cryptoShuffler) perm(n int, out []int) {
	if n <= 0 {
		return
	}
	out[0] = 0
	for i := 1; i < n; i++ {
		j := s.intN(i + 1)
		out[i] = out[j]
		out[j] = i
	}
}
