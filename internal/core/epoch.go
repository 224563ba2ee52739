package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// Epoch-fenced counter-range ownership. With several proxies live
// (ring.go), two proxies advancing the same key's counter would fork
// its label schedule. The protocol's own self-fencing already limits
// the damage — at most one round per counter value ever applies
// (slotStale) — but it cannot stop a partitioned ex-owner from
// burning counter values the new owner is about to use. Epoch fencing
// closes that: every access frame carries an ownership claim
// (rangeID, epoch), the server keeps the highest epoch it has seen per
// range, and a frame behind the stored epoch is rejected before the
// record is touched. Adopting a dead peer's range is therefore one
// MsgEpochClaim round — bump the range's epoch at the server — after
// which every in-flight or retried round from the previous owner is
// dead on arrival, and the adopter rebases each of the range's counters
// from its first stale answer (reconcile.go).
//
// Shape neutrality: the claim is fixed-width (4+8 bytes, never
// varint), so request frames are byte-identical in length whatever the
// epoch's magnitude; the fence rejection is a constant error text, so
// all fence responses are byte-identical too, and the ShapeAuditor
// sees one frame class for fenced rounds regardless of which range,
// epoch, or operation type was fenced (DESIGN.md §14).

// lblClaimLen is the wire size of the ownership claim embedded in every
// LBL access: rangeID (uint32 LE) ‖ epoch (uint64 LE). Fixed-width on
// purpose — see the shape-neutrality note above.
const lblClaimLen = 4 + 8

// fencedEpochMarker tags the server's epoch-fence rejections, the
// ownership analogue of staleTableMarker. The text is constant — no
// range ids or epoch values — so every fence response frame is
// byte-identical.
const fencedEpochMarker = "fenced stale epoch"

// errFencedEpoch is the one error value the fence ever returns; its
// message length (and thus the error frame length) never varies.
var errFencedEpoch = errors.New("core: " + fencedEpochMarker + ": range ownership has moved")

// IsHandoffTransient reports whether err is a definite ownership or
// counter-position rejection (epoch fence, stale access table) that
// surfaced through every recovery layer during a live ownership
// handoff. The round demonstrably did not execute — the server rejects
// before touching the record — so callers may simply retry the
// operation; fence/adoption churn resolves within a few rounds.
func IsHandoffTransient(err error) bool {
	return isFencedRound(err) || isStaleRound(err)
}

// isFencedRound reports whether err is the server's epoch-fence
// rejection: the round's ownership claim is behind the range's current
// epoch, meaning another proxy has claimed the range since the frame
// was built. The record is untouched — fencing happens before decrypt.
func isFencedRound(err error) bool {
	var re *transport.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, fencedEpochMarker)
}

// putClaim encodes one ownership claim into dst[:lblClaimLen]
// (little-endian, fixed-width).
func putClaim(dst []byte, rangeID uint32, epoch uint64) {
	binary.LittleEndian.PutUint32(dst, rangeID)
	binary.LittleEndian.PutUint64(dst[4:], epoch)
}

// readClaim decodes one ownership claim from raw (lblClaimLen bytes).
func readClaim(raw []byte) (rangeID uint32, epoch uint64) {
	return binary.LittleEndian.Uint32(raw), binary.LittleEndian.Uint64(raw[4:])
}

// storeMaxEpoch raises e to at least v (CAS loop; concurrent raisers
// both land on the max).
func storeMaxEpoch(e *atomic.Uint64, v uint64) {
	for {
		cur := e.Load()
		if v <= cur || e.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ---- server side ----

// checkEpoch admits or fences one access's ownership claim. A claim at
// the stored epoch passes; a claim ahead of it installs the higher
// epoch and passes (a restarted server has forgotten its epochs — the
// first frame from the rightful owner reteaches it); a claim behind it
// is fenced with the record untouched. Epoch 0 against epoch 0 passes,
// so single-proxy deployments that never claim anything run exactly as
// before.
func (s *LBLServer) checkEpoch(rangeID uint32, epoch uint64) error {
	if rangeID >= NumRanges {
		return fmt.Errorf("core: range id %d out of space [0,%d)", rangeID, NumRanges)
	}
	for {
		cur := s.epochs[rangeID].Load()
		if epoch < cur {
			s.fencedRounds.Add(1)
			return errFencedEpoch
		}
		if epoch == cur {
			return nil
		}
		if s.epochs[rangeID].CompareAndSwap(cur, epoch) {
			s.epochBumps.Add(1)
			storeMaxEpoch(&s.maxEpoch, epoch)
			return nil
		}
	}
}

// RangeEpoch returns the server's current epoch for rangeID (0 if
// never claimed).
func (s *LBLServer) RangeEpoch(rangeID uint32) uint64 {
	if rangeID >= NumRanges {
		return 0
	}
	return s.epochs[rangeID].Load()
}

// handleEpochClaim serves MsgEpochClaim: a proxy adopting (or
// re-asserting) a range asks the server to move the range to a fresh
// epoch. The new epoch is max(current+1, minEpoch) — always a strict
// bump past the current one, so the moment the claim commits, every
// frame built under any earlier epoch is fenced. Request and response
// are fixed-width (12 and 8 bytes): strict shape classes both ways.
func (s *LBLServer) handleEpochClaim(ctx context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	rangeID := r.Uint32()
	minEpoch := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if rangeID >= NumRanges {
		return nil, fmt.Errorf("core: range id %d out of space [0,%d)", rangeID, NumRanges)
	}
	var granted uint64
	for {
		cur := s.epochs[rangeID].Load()
		granted = cur + 1
		if minEpoch > granted {
			granted = minEpoch
		}
		if s.epochs[rangeID].CompareAndSwap(cur, granted) {
			break
		}
	}
	s.epochBumps.Add(1)
	storeMaxEpoch(&s.maxEpoch, granted)
	w := wire.NewWriter(8)
	w.Uint64(granted)
	return w.Bytes(), nil
}

// ---- proxy side ----

// rangeEpoch returns the epoch this proxy stamps on accesses to
// rangeID's keys: the epoch of its last successful claim, or 0 if it
// has never claimed the range (the legacy single-proxy value).
func (p *LBLProxy) rangeEpoch(rangeID uint32) uint64 {
	return p.epochs[rangeID].Load()
}

// ClaimRange asserts ownership of one counter range: the server bumps
// the range past every epoch it has seen and returns the granted
// epoch, which the proxy stamps on subsequent accesses to the range's
// keys. Rounds built by the previous owner — in flight or retried — are
// fenced from this moment on. Counters are NOT transferred; the
// adopter's first access per key is answered stale with the label the
// record holds and rebases to it (reconcile.go), which the fence keeps
// settled: the ex-owner can no longer advance the record behind it.
func (p *LBLProxy) ClaimRange(rangeID uint32) (uint64, error) {
	if rangeID >= NumRanges {
		return 0, fmt.Errorf("core: range id %d out of space [0,%d)", rangeID, NumRanges)
	}
	if p.client == nil {
		return 0, fmt.Errorf("core: LBL proxy has no server connection")
	}
	w := wire.NewWriter(lblClaimLen)
	w.Uint32(rangeID)
	w.Uint64(p.epochs[rangeID].Load() + 1)
	resp, err := p.client.Call(MsgEpochClaim, w.Bytes())
	if err != nil {
		return 0, fmt.Errorf("core: claiming range %d: %w", rangeID, err)
	}
	r := wire.NewReader(resp)
	granted := r.Uint64()
	if err := r.Finish(); err != nil {
		return 0, fmt.Errorf("core: claiming range %d: malformed grant: %w", rangeID, err)
	}
	storeMaxEpoch(&p.epochs[rangeID], granted)
	p.mx.epochClaims.Inc()
	return granted, nil
}

// ClaimRanges claims every range in rangeIDs, stopping at the first
// failure.
func (p *LBLProxy) ClaimRanges(rangeIDs []uint32) error {
	for _, rid := range rangeIDs {
		if _, err := p.ClaimRange(rid); err != nil {
			return err
		}
	}
	return nil
}

// ClaimOwned claims every range the ring assigns to member self —
// the startup handshake of a multi-proxy deployment.
func (p *LBLProxy) ClaimOwned(ring *Ring, self string) error {
	return p.ClaimRanges(ring.Ranges(self))
}

// OwnedRanges returns how many ranges this proxy has ever claimed
// (epoch > 0) — the value behind the ortoa_lbl_owned_ranges gauge.
func (p *LBLProxy) OwnedRanges() int64 {
	var n int64
	for i := range p.epochs {
		if p.epochs[i].Load() > 0 {
			n++
		}
	}
	return n
}
