package core

import (
	"ortoa/internal/crypto/prf"
	"ortoa/internal/transport"
)

// Counter recovery. The label schedule is counter-indexed, so LBL-ORTOA
// works only while the proxy's per-key counter ct matches the counter
// of the labels the server's record holds. Whenever it does not, the
// server answers the access stale (slotStale), and a stale slot's body
// — fixed-length, zero for every other failure — carries, in the
// digest's place, the group-0 label of the record the server holds. The
// proxy finds the counter that label belongs to by local search and
// rebases:
//
//   - Above ct: the record moved without this proxy's counter. That is
//     every lost-state case — a chain that ran but whose response was
//     lost (the ambiguous failure leaves the counter where it was, so
//     the key's next access is its probe), a proxy resumed from a stale
//     counter file, an adopter with empty counters. The chain rebases
//     and goes around once more.
//   - Below ct: the server rolled back (a crash under a lossy fsync
//     policy). A proxy commits a counter step only on a verified
//     response, so nothing else puts its counter past the server's. The
//     access that finds it fails with errRolledBack, definitely — no
//     table was installed — and the key rebases, so later accesses
//     succeed: a rolled-back value is never served silently.
//   - At ct, or nowhere within reconcileWindow: the chain fails stale.
//
// A label is evidence: a server cannot produce the label of a counter
// its record never reached. Obliviousness: the server answers stale
// identically for reads and writes, and the label it returns is one it
// stores, so recovery adds no exchange and leaks no operation type
// (the desync rows of TestLBLRequestParity).

// reconcileWindow bounds the counter search each way from ct. A full
// miss derives 2·reconcileWindow·2^y labels, under a millisecond at
// y = 2.
const reconcileWindow = 4096

// errRolledBack reports an access that found the server's record behind
// the proxy's counter: the server lost acknowledged state. The access
// did not execute, and the key's next access runs at the server's
// counter. It reads the server's stale answer, so like every rejection
// an answer carries it is a RemoteError with constant text, which
// transport.Ambiguous reports as definite.
var errRolledBack error = &transport.RemoteError{Msg: "core: server rolled back: record is behind the proxy's counter"}

// rebase answers c's stale rejection from the label it carried,
// reporting whether c should go around again (see above).
func (p *LBLProxy) rebase(c *keyChain) bool {
	ct, ok := p.locate(c.key(), c.entry.ct, c.held)
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

// locate returns the counter within reconcileWindow of ct, nearest first,
// whose group-0 label for some bit value is held.
func (p *LBLProxy) locate(key string, ct uint64, held prf.Output) (uint64, bool) {
	gen := p.prf.LabelGen(key)
	at := func(c uint64) bool {
		for b := 0; b < p.cfg.Mode.entries(); b++ {
			if gen.Label(0, uint8(b), c).Equal(held) {
				return true
			}
		}
		return false
	}
	if at(ct) {
		return ct, true
	}
	for d := uint64(1); d <= reconcileWindow; d++ {
		if at(ct + d) {
			return ct + d, true
		}
		if d <= ct && at(ct-d) {
			return ct - d, true
		}
	}
	return 0, false
}
