// Package core implements the ORTOA protocol family: LBL-ORTOA (§5),
// TEE-ORTOA (§4), FHE-ORTOA (§3), and the two-round-trip baseline the
// paper evaluates against (§6).
//
// Each protocol is split into a trusted side (proxy or key-holding
// client) and an untrusted server side that registers handlers on a
// transport.Server. All four expose the same single-object access
// operation: read a key, or write a key with a fixed-length value,
// without the server learning which of the two happened.
package core

import (
	"errors"
	"fmt"
)

// Op is a client operation type — the secret ORTOA protects.
type Op uint8

// Operation types.
const (
	OpRead Op = iota
	OpWrite
)

// String renders the op for logs and workload descriptions.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Transport message types used by the ORTOA protocols.
const (
	// MsgLoad bulk-loads opaque (key, record) pairs into the server's
	// store during initialization; records are already encoded by the
	// trusted side, so one handler serves every protocol.
	MsgLoad byte = 0x01
	// MsgLBLAccess is an LBL-ORTOA access round (§5.2): the request is
	// one segment per accessed key back to back (encoded key, ownership
	// claim, table geometry, encryption table), in one frame or cut into
	// several at group boundaries; the response is one fixed-width slot
	// per key (status, the opened entries' indices, a label digest). One
	// key in one frame is the paper's single access; more keys amortize
	// the round trip without changing what the adversary learns per
	// access (lbl.go, lblserver.go).
	MsgLBLAccess byte = 0x02
	// MsgTEEAccess is a TEE-ORTOA access (§4.1).
	MsgTEEAccess byte = 0x03
	// MsgFHEAccess is an FHE-ORTOA access (§3.1).
	MsgFHEAccess byte = 0x04
	// MsgBaselineGet / MsgBaselinePut are the two rounds of the 2RTT
	// baseline.
	MsgBaselineGet byte = 0x05
	MsgBaselinePut byte = 0x06
	// MsgClientAccess is the client→proxy request envelope.
	MsgClientAccess byte = 0x07
	// MsgTEEAttest / MsgTEEProvision are the TEE-ORTOA setup
	// handshake: challenge the enclave, verify its report, provision
	// the data key (§4.1). Setup-path only, never on the access path.
	MsgTEEAttest    byte = 0x08
	MsgTEEProvision byte = 0x09
)

// Protocol errors.
var (
	// ErrValueSize reports a value that does not match the store's
	// fixed value length. Fixed lengths are a security requirement
	// (§2.2); callers pad with PadValue.
	ErrValueSize = errors.New("core: value does not match configured value size")
	// ErrNotFound reports an access to a key the store was not
	// initialized with.
	ErrNotFound = errors.New("core: key not found")
	// ErrTampered reports server behaviour inconsistent with the
	// protocol: for LBL-ORTOA, a response slot whose label digest is not
	// the one the reported entries select (§5.4).
	ErrTampered = errors.New("core: server response failed integrity check (tampering or state divergence)")
)

// AccessStats describes one access, for the latency breakdown of
// Fig 3c and the communication accounting of §5.3.2.
type AccessStats struct {
	// PrepBytes is the request payload size sent to the server.
	PrepBytes int
	// RespBytes is the response payload size received.
	RespBytes int
	// ServerAttempts counts server-side decryption attempts
	// (LBL only; 2 per bit-group without point-and-permute, 1 with).
	ServerAttempts int
}

// PadValue right-pads v with zeros to size. It returns an error if v
// is longer than size. ORTOA stores require equal-length values so
// ciphertext sizes leak nothing (§2.2).
func PadValue(v []byte, size int) ([]byte, error) {
	if len(v) > size {
		return nil, fmt.Errorf("core: value of %d bytes exceeds fixed size %d", len(v), size)
	}
	if len(v) == size {
		return v, nil
	}
	out := make([]byte, size)
	copy(out, v)
	return out, nil
}
