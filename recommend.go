package ortoa

import (
	"fmt"
	"time"

	"ortoa/internal/core"
)

// This file implements the paper's §6.3.2 deployment guidance as code:
// "LBL-ORTOA is a better choice for an application if c > p + o" —
// where c is the cross-datacenter round-trip the extra baseline round
// costs, p is LBL's processing time, and o is its large-message
// communication overhead.

// Deployment describes the environment a protocol choice depends on.
type Deployment struct {
	// RTT is the proxy↔server round-trip time.
	RTT time.Duration
	// Bandwidth is the effective per-connection throughput in
	// bytes/second (0 = unconstrained).
	Bandwidth int64
	// ValueSize is the fixed object size in bytes.
	ValueSize int
	// TEEAvailable reports whether the storage provider offers trusted
	// enclaves the application is willing to rely on (§4.3's hardware
	// and side-channel caveats).
	TEEAvailable bool
}

// lblProcessingPerKB is the p term's rate: LBL's proxy and server
// compute per KiB of request. It is an unmeasured constant, not a
// calibration; EXPERIMENTS.md quotes the p that the fig3b sweep
// measures beside it.
const lblProcessingPerKB = 6 * time.Microsecond

// Recommendation is the outcome of the §6.3.2 rule.
type Recommendation struct {
	Protocol Protocol
	// C, P, O are the rule's terms for transparency: one extra round
	// trip, LBL processing, LBL communication overhead.
	C, P, O time.Duration
	Reason  string
}

// Recommend applies the §6.3.2 decision rule to a deployment.
func Recommend(d Deployment) (Recommendation, error) {
	if d.ValueSize <= 0 {
		return Recommendation{}, fmt.Errorf("ortoa: Deployment.ValueSize must be positive")
	}
	if d.TEEAvailable {
		return Recommendation{
			Protocol: ProtocolTEE,
			Reason:   "TEE-ORTOA: flat cost in value size and one round trip (§6.1); use when enclaves are acceptable",
		}, nil
	}
	// Sizes from the LBL point-and-permute configuration: a table of
	// 2^y·ℓ/y 16-byte entries behind the segment header and verifier
	// pair, a response slot of y bits per group and a digest.
	cfg := core.LBLConfig{ValueSize: d.ValueSize, Mode: core.LBLPointPermute}
	requestBytes, responseBytes := cfg.RequestBytesPerAccess(), cfg.ResponseBytesPerAccess()

	p := time.Duration(float64(requestBytes) / 1024 * float64(lblProcessingPerKB))
	var o time.Duration
	if d.Bandwidth > 0 {
		o = time.Duration(float64(requestBytes+responseBytes) / float64(d.Bandwidth) * float64(time.Second))
	}
	c := d.RTT

	rec := Recommendation{C: c, P: p, O: o}
	if c > p+o {
		rec.Protocol = ProtocolLBL
		rec.Reason = fmt.Sprintf("c=%v > p+o=%v: the extra baseline round costs more than LBL's compute and larger messages (§6.3.2)",
			c.Round(time.Millisecond), (p + o).Round(time.Millisecond))
	} else {
		rec.Protocol = ProtocolBaseline2RTT
		rec.Reason = fmt.Sprintf("c=%v ≤ p+o=%v: at this value size and link, two cheap rounds beat one heavy round (§6.3.2, Fig 3b)",
			c.Round(time.Millisecond), (p + o).Round(time.Millisecond))
	}
	return rec, nil
}
