package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/transport"
)

// Counter recovery. The label schedule is counter-indexed, so LBL-ORTOA
// works only while the proxy's per-key counter ct matches the counter
// of the labels the server's record holds. Every record therefore ends
// with a verifier, v_ct = AES_kv(PRF(k)[:8] ‖ ct), under a key kv every
// proxy sharing the PRF key derives (prf.VerifierKey). Each request
// segment carries the verifier its table expects, v_ct, and the one it
// installs, v_ct+1; the server compares the first with the record's
// before it decrypts anything, and answers a mismatch stale (slotStale).
// A stale slot's body — fixed-length, zero for every other failure —
// carries, in the digest's place, the verifier of the record the server
// holds. The proxy decrypts it once, and if it is this key's, rebases to
// the counter it carries:
//
//   - Above ct: the record moved without this proxy's counter. That is
//     every lost-state case — a round that ran but whose response was
//     lost (the ambiguous failure leaves the counter where it was, so
//     the key's next access is its probe), a proxy resumed from a stale
//     counter file, an adopter with empty counters. The key rebases
//     and goes around once more, however far the record moved.
//   - Below ct: the server rolled back (a crash under a lossy fsync
//     policy). A proxy commits a counter step only on a verified
//     response, so nothing else puts its counter past the server's. The
//     access that finds it fails with errRolledBack, definitely — no
//     table was installed — and the key rebases, so later accesses
//     succeed: a rolled-back value is never served silently.
//   - At ct, or another key's verifier, or none at all: the access fails
//     stale.
//
// A verifier is evidence: without kv a server cannot produce the verifier
// of a counter its record never reached, only replay one it held, which
// is a rollback. Obliviousness: the server answers stale identically for
// reads and writes, the verifier it returns is one it stores, and a
// verifier changes on every access whatever its operation, so recovery
// adds no exchange and leaks no operation type (the desync rows of
// TestLBLRequestParity).

// verifierLen is the size of a record verifier: one AES block.
const verifierLen = prf.Size

// A verifierKey seals and opens record verifiers. The AES block of
// crypto/aes is safe for concurrent use.
type verifierKey struct{ kv cipher.Block }

func newVerifierKey(f *prf.PRF) verifierKey {
	k := f.VerifierKey()
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic("core: " + err.Error()) // a 16-byte key; cannot fail
	}
	return verifierKey{block}
}

// seal writes v_ct of the key whose encoded form is ek into dst, one
// verifierLen slot, in place.
func (v verifierKey) seal(dst []byte, ek prf.Output, ct uint64) {
	dst = dst[:verifierLen]
	copy(dst, ek[:8])
	binary.BigEndian.PutUint64(dst[8:], ct)
	v.kv.Encrypt(dst, dst)
}

// open returns the counter held carries, and whether held is a verifier
// of the key whose encoded form is ek at all.
func (v verifierKey) open(held []byte, ek prf.Output) (uint64, bool) {
	var block [verifierLen]byte
	v.kv.Decrypt(block[:], held[:verifierLen])
	return binary.BigEndian.Uint64(block[8:]), subtle.ConstantTimeCompare(block[:8], ek[:8]) == 1
}

// errRolledBack reports an access that found the server's record behind
// the proxy's counter: the server lost acknowledged state. The access
// did not execute, and the key's next access runs at the server's
// counter. It reads the server's stale answer, so like every rejection
// an answer carries it is a RemoteError with constant text, which
// transport.Ambiguous reports as definite.
var errRolledBack error = &transport.RemoteError{Msg: "core: server rolled back: record is behind the proxy's counter"}

// rebase answers c's stale rejection from the verifier it carried,
// reporting whether c should go around again (see above).
func (p *LBLProxy) rebase(c *keyRound) bool {
	ct, ok := p.vk.open(c.held[:], p.prf.EncodeKey(c.Key))
	switch {
	case !ok || ct == c.entry.ct:
		return false
	case ct < c.entry.ct:
		c.entry.ct, c.err = ct, errRolledBack
		p.mx.rolledBackKeys.Inc()
		return false
	}
	c.entry.ct = ct
	p.mx.reconciledKeys.Inc()
	return true
}
