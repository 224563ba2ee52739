package core

import "ortoa/internal/wire"

// ShapeClassify is the transport.ShapeClassifier for the ORTOA message
// set: it maps each access frame to the public parameters its length
// is allowed to depend on, so the ShapeAuditor can pin "all access
// frames of a given class are byte-identical in length" as a live
// invariant (§2.2, §5.3.2).
//
//   - MsgLBLAccess: class folds the configuration (mode and group
//     count, both in the clear in the first segment's header) and how
//     many whole groups the frame carries, which tells
//     requests for different key counts — and the head frame of a
//     request cut under a frame budget — apart. Requests and responses
//     (fixed-width slots) are strict. Only a request's first frame is
//     self-describing; the transport classifies continuation frames by
//     position under the head's class (transport.frameShape).
//   - MsgTEEAccess: fixed-size sealed request and response per
//     deployment; strict both ways.
//   - Everything else is observed but never length-checked: MsgClientAccess
//     is the client→proxy hop inside the trust boundary, where request
//     lengths legitimately differ between reads and writes; the 2RTT
//     baseline leaks operation types by design; FHE ciphertext sizes
//     vary with degree growth; loads and setup messages are unbounded.
func ShapeClassify(msgType byte, payload []byte) (class uint64, strictReq, strictResp bool) {
	switch msgType {
	case MsgLBLAccess:
		_, cfg, err := readSegHeader(wire.NewReader(payload))
		if err != nil {
			return 0, false, false
		}
		return lblShapeClass(cfg, uint64(len(payload)/cfg.groupBytes())), true, true
	case MsgTEEAccess:
		return 0, true, true
	}
	return 0, false, false
}

// lblShapeClass packs the public configuration — the mode, which fixes
// the entry length, and the group count — and the frame's group count
// into one class value. Collisions would only ever merge classes —
// which can produce a false alarm, never mask a real divergence — and
// the fields (4, 23 and 31 bits) do not overlap for any configuration
// the server accepts.
func lblShapeClass(cfg LBLConfig, n uint64) uint64 {
	return uint64(cfg.Mode)<<60 ^ uint64(cfg.Groups())<<31 ^ n
}
