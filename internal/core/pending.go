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
// pending, and the next access to that key first settles the mark with
// a probe — a fresh read-shaped round of one keyed at the same counter
// ct — before building anything at a counter value it can trust.
//
// One property of the protocol makes the probe decisive, not just
// likely: rounds are self-fencing. A table is keyed by the counter-ct
// labels, so out of all rounds ever built for a key at counter ct, at
// most ONE can apply — the server rejects the rest as stale (slotStale
// in lblserver.go). So either the probe executes, which proves the
// parked round never did and now never can, or the probe is rejected
// stale, which only a round at ct having executed can cause. Both
// outcomes advance the counter exactly one step; they differ only in
// whether the parked operation applied, which the original caller was
// already told is unknown. The probe needs nothing from the parked
// round — not its bytes, its request id, or its shape — which is why
// every kind of round (one key or many, one frame or several) parks
// the same way, and why a probe that itself fails ambiguously simply
// leaves the mark in place.
//
// Obliviousness of resolution traffic: probes are always read-shaped
// and are triggered by the ambiguous transport failure alone, which
// strikes reads and writes alike.

// resolvePending settles entry's parked round so the counter is
// trustworthy again. On nil return the counter has advanced past the
// parked round's value and the mark is cleared. An error means the
// network is still failing or the server is shedding load (the round
// stays parked for the next access), or the probe was rejected for a
// reason that says nothing about the parked round (the mark is
// dropped; a resulting desynchronization is reconcile.go's to repair).
// The caller must hold entry.mu.
func (p *LBLProxy) resolvePending(key string, entry *counterEntry) error {
	_, err := p.probe(key, entry.ct)
	switch {
	case err == nil:
		entry.ct++
		entry.pending = false
		p.mx.pendingResolved.Inc()
		return nil
	case transport.Ambiguous(err) || transport.IsBusy(err):
		return fmt.Errorf("core: round for %q still unresolved: %w", key, err)
	default:
		entry.pending = false
		return fmt.Errorf("core: probing round for %q: %w", key, err)
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
