package core

import (
	"context"
	"fmt"

	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// Ambiguous-round resolution. An LBL round whose transport call fails
// ambiguously (lost connection, deadline, a multi-frame request cut
// mid-flight) may or may not have executed on the server. The proxy
// cannot simply retry with a fresh request: the counter-indexed label
// schedule (§5.2) means that if the lost round did execute, the
// server's labels have moved to counter ct+1 while the proxy still
// builds tables at ct — and guessing wrong either way is permanent
// desynchronization, the one failure §5.3.1 flags as unrecoverable.
//
// Instead the proxy parks the round: it marks the key's counter entry
// pending, with the length k of the key's chain in the round, and the
// next access to that key first settles the mark with a probe — a fresh
// read-shaped round of one keyed at the same counter ct — before
// building anything at a counter value it can trust.
//
// Two properties of the protocol make the probe decisive, not just
// likely. Rounds are self-fencing: a table is keyed by the counter-ct
// labels, so out of all rounds ever built for a key at counter ct, at
// most ONE can apply — the server rejects the rest as stale (slotStale
// in lblserver.go). And a chain installs whole or not at all: its k
// tables are applied by one compare-and-swap from the record at ct to
// the record at ct+k. So either the probe executes, which proves the
// parked chain never ran and — its head's labels being gone — now never
// can, and the counter is ct+1; or the probe is rejected stale, which
// only a round at ct having executed can cause, so all of the chain ran
// and the counter is ct+k. The two outcomes differ in whether the parked
// operations applied, which the original callers were already told is
// unknown. The probe needs nothing from the parked round — not its
// bytes, its request id, or its shape — which is why every kind of
// round (one key or many, one frame or several) parks the same way.
//
// A probe that itself fails ambiguously leaves the mark in place, and
// for a chain of one that is all: whichever of the two rounds at ct ran,
// the counter is ct+1. For a longer chain it is a third candidate — the
// probe ran alone and the record is at ct+1, not ct+k — that a later
// stale answer at ct cannot tell from the chain's. The entry therefore
// remembers that a probe at ct may have run (probed), and a stale answer
// at ct then only rules ct out: the mark moves up to ct+1, one step
// shorter, and the next probe is keyed there — executed, and only the
// lost probe ever ran; stale, and the chain did, nothing else being able
// to have left ct+1 behind. The candidates are never more than the lowest
// counter, its successor and the chain's end, because the probe is always
// keyed at the lowest.
//
// Obliviousness of resolution traffic: probes are always read-shaped
// and are triggered by the ambiguous transport failure alone, which
// strikes reads and writes alike.

// resolvePending settles entry's parked round so the counter is
// trustworthy again. On nil return the counter has advanced past the
// last probe — and, if the parked chain ran, past all of it — and the
// mark is cleared. An error means the network is still failing or the
// server is shedding load (the round stays parked for the next access,
// and remembers that its probe may have run), or the probe was rejected
// for a reason that says nothing about the parked round (the mark is
// dropped; a resulting desynchronization is reconcile.go's to repair).
// The caller must hold entry.mu.
func (p *LBLProxy) resolvePending(key string, entry *counterEntry) error {
	for {
		executed, err := p.probe(key, entry.ct)
		switch {
		case err == nil && !executed && entry.probed && entry.pending > 1:
			// Stale at ct, which the chain or an earlier probe of ours may
			// have caused: ct is ruled out, ct+1 and the chain's end are not.
			entry.ct++
			entry.pending--
			entry.probed = false
			continue
		case err == nil:
			if executed {
				entry.ct++
			} else {
				entry.ct += uint64(entry.pending)
			}
			entry.pending, entry.probed = 0, false
			p.mx.pendingResolved.Inc()
			return nil
		case transport.Ambiguous(err) || transport.IsBusy(err):
			entry.probed = entry.probed || transport.Ambiguous(err)
			return fmt.Errorf("core: round for %q still unresolved: %w", key, err)
		default:
			entry.pending, entry.probed = 0, false
			return fmt.Errorf("core: probing round for %q: %w", key, err)
		}
	}
}

// probe issues one read-shaped round of one for key, keyed at counter
// ct, through the same builder and sender as every other round. It
// reports whether the probe executed — the server's record was at ct
// and is now at ct+1 — or was rejected stale with the record untouched
// (false, nil). Any other outcome is an error.
func (p *LBLProxy) probe(key string, ct uint64) (executed bool, err error) {
	sched := p.schedules.get(p.cfg.scheduleBytes())
	defer p.schedules.put(sched)
	spec := [1]tableSpec{{op: OpRead, key: key, ct: ct, news: sched}}
	var untimed obs.Clock // a probe is part of no access's stages
	resp, _, err := p.exchange(context.Background(), &untimed, spec[:])
	if transport.IsReplayEvicted(err) {
		// The transport retried the probe and the server had already
		// executed it; only the response bytes are gone.
		return true, nil
	}
	if err != nil {
		return false, err
	}
	switch status := resp[0]; status {
	case slotOK:
		_, err := p.recoverWorkers(OpRead, nil, spec[0].news, resp[1:], tableWorkers(p.cfg.Groups(), minGroupsPerRecoverWorker))
		return err == nil, err
	case slotStale:
		return false, nil
	default:
		return false, slotError(status)
	}
}
