package secretbox

import (
	"crypto/aes"
	"crypto/cipher"
	"math/bits"
)

// labelDomain names the entry format. Bumping it re-keys π, so entries
// of two formats never open each other; internal/core stamps the same
// version into every request so a mixed pair is refused outright.
const labelDomain = "ortoa/lbl-entry/v2"

// piKey is the key of π: the domain string folded to AES-128 key length.
// Nothing about it is secret; the pad's secrecy comes from the label.
func piKey() (key [aes.BlockSize]byte) {
	for i := 0; i < len(labelDomain); i++ {
		key[i%len(key)] ^= labelDomain[i]
	}
	return key
}

// pi is the fixed-key permutation π of the entry pad: AES-128 under
// piKey. PadGroup's kernel runs the same permutation from piRounds.
var pi = func() cipher.Block {
	key := piKey()
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("secretbox: " + err.Error()) // only on a bad key size
	}
	return block
}()

// piRounds is π's key schedule, the round keys PadGroup's kernel takes.
// The key is public, so expanding it in Go leaks nothing.
var piRounds = expandKey(piKey())

// roundKeys is AES-128's key schedule: the 11 round keys, each in the
// byte order of the state it is XORed into.
type roundKeys [11 * aes.BlockSize]byte

// expandKey is the AES-128 key expansion of FIPS-197 §5.2. It runs once,
// on π's public key, so it is written for brevity, not speed or constant
// time: the S-box entries it needs are computed, not looked up.
func expandKey(key [aes.BlockSize]byte) (rk roundKeys) {
	copy(rk[:], key[:])
	rcon := byte(1)
	for i := len(key); i < len(rk); i += 4 {
		w := [4]byte(rk[i-4 : i])
		if i%len(key) == 0 {
			w = [4]byte{sbox(w[1]) ^ rcon, sbox(w[2]), sbox(w[3]), sbox(w[0])}
			rcon = xtime(rcon)
		}
		for j, b := range w {
			rk[i+j] = rk[i-len(key)+j] ^ b
		}
	}
	return rk
}

// sbox is the AES S-box (FIPS-197 §5.1.1): the inverse in GF(2⁸), x²⁵⁴
// by square-and-multiply, then the affine map.
func sbox(x byte) byte {
	inv := byte(1)
	for e := 254; e > 0; e >>= 1 {
		if e&1 != 0 {
			inv = gmul(inv, x)
		}
		x = gmul(x, x)
	}
	return inv ^ bits.RotateLeft8(inv, 1) ^ bits.RotateLeft8(inv, 2) ^
		bits.RotateLeft8(inv, 3) ^ bits.RotateLeft8(inv, 4) ^ 0x63
}

// gmul multiplies in AES's GF(2⁸).
func gmul(a, b byte) (p byte) {
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
	}
	return p
}

// xtime multiplies by x in AES's GF(2⁸).
func xtime(a byte) byte { return a<<1 ^ a>>7*0x1b }
