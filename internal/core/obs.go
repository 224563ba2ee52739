package core

import (
	"context"
	"encoding/hex"
	"sync/atomic"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
)

// This file holds the protocol layer's observability: the stage family
// each trusted-side component times its accesses with, and one
// value-typed struct of further metric handles per protocol side,
// embedded in the proxy/client/server structs. The zero value (all-nil
// handles, an unmetered family) is the "observability off" state, in
// which hot paths pay one branch per stage boundary and never read the
// clock (see obs.Clock). Instrument methods accept a nil registry (it
// leaves the component in that state) and must be called before the
// component serves traffic — the bundle is written without
// synchronization.
//
// Stage names follow the step structure of the paper: LBL stages are
// the proxy-side steps 1.1–1.5 and 3.1–3.2 of §5.2 plus the wire time
// between them, which together make up the per-access latency that
// Fig 3 decomposes, and the recovery ladder a rejected round climbs. DESIGN.md §8 maps every metric to its paper
// stage. Each family is declared here and nowhere else: the
// declaration names the stage histograms, the spans and the slow-log
// columns, and the constants beside it are the stages' positions.

// The LBL proxy's stages, in LBLStages' order.
const (
	lblAcquire = iota // counter lookup and a multi-key round's wait for its keys, step 1.1
	lblBuild          // encryption-table build, steps 1.2–1.5: time spent sealing frames
	lblRPC            // wire round trip, request out to response in, less the sealing it overlapped
	lblRecover        // label→bit recovery + §5.4 integrity check, steps 3.1–3.2, and the counter commit
	lblLadder         // the recovery ladder: rebases after a stale answer, until the next lap's build
)

// LBLStages declares the LBL proxy's stage family (ortoa_lbl_*, slow
// log lbl_access) against reg; nil declares it unmetered. Readers of
// the family — the trace experiment — take the stage names from here.
func LBLStages(reg *obs.Registry) *obs.Stages {
	return reg.Stages("ortoa_lbl", "LBL proxy per-round stage latency (§5.2 steps)",
		"counter_acquire", "table_build", "rpc", "label_recover", "recovery_ladder")
}

// The TEE client's stages: selector + value sealing, the round trip,
// result unsealing + length check (§4.1).
const (
	teeSeal = iota
	teeRPC
	teeOpen
)

func teeStages(reg *obs.Registry) *obs.Stages {
	return reg.Stages("ortoa_tee", "TEE client per-access stage latency (§4.1)", "seal", "rpc", "open")
}

// The FHE client's stages: selector + value encryption and marshalling,
// the round trip, result decryption and decoding (§3.1).
const (
	fheEncrypt = iota
	fheRPC
	fheDecrypt
)

func fheStages(reg *obs.Registry) *obs.Stages {
	return reg.Stages("ortoa_fhe", "FHE client per-access stage latency (§3.1)", "encrypt", "rpc", "decrypt")
}

// stageObs is what a trusted-side component times accesses with: its
// stage family and, once TraceWith attached one, a tracer for accesses
// that arrive without a span of their own.
type stageObs struct {
	stages *obs.Stages
	tracer atomic.Pointer[trace.Tracer]
}

// TraceWith attaches a tracer: subsequent accesses that arrive untraced
// start their own traces in it — a proxy's or client's stage span tree,
// whose trace id rides the request frames so the server's spans join
// it.
func (o *stageObs) TraceWith(t *trace.Tracer) {
	if t != nil {
		o.tracer.Store(t)
	}
}

// start begins one access's clock under a root span named root: a child
// of the caller's span when the request arrived traced (the proxy front
// end's server_handle span), else a fresh root from the component's own
// tracer, else no spans at all.
func (o *stageObs) start(ctx context.Context, root string) (obs.Clock, context.Context) {
	return o.stages.Start(ctx, o.tracer.Load(), root)
}

// failedAccesses is the failed count a single access reports to its
// stage family.
func failedAccesses(err error) int {
	if err != nil {
		return 1
	}
	return 0
}

// traceLabel renders an encoded (PRF-image) key prefix for slow-log
// labels. Plaintext keys never reach the slow log — the label is the
// same pseudonym the untrusted server sees on the wire, and the
// parameter's type keeps a plaintext key from being passed by mistake.
func traceLabel(encKey prf.Output) string {
	return "ek=" + hex.EncodeToString(encKey[:4])
}

// lblProxyObs counts what the LBL proxy does beyond timing accesses. A
// round of one key is one access.
type lblProxyObs struct {
	keys     *obs.Counter   // accesses carried by rounds; keys/rounds is the batching factor
	chainLen *obs.Histogram // single accesses a round carried, one key's chain
	frames   *obs.Counter   // request frames sealed; frames/rounds > 1 means the frame budget is cutting requests

	reconciledKeys *obs.Counter // counters rebased up to a stale answer's verifier (reconcile.go)
	rolledBackKeys *obs.Counter // stale answers whose verifier was behind the counter: a server rollback
}

// Instrument registers the proxy's stage family and counters
// (ortoa_lbl_*) with reg. Call before serving accesses; a nil
// registry leaves the proxy uninstrumented at zero cost.
func (p *LBLProxy) Instrument(reg *obs.Registry) {
	p.stages = LBLStages(reg)
	// A single access's stages, per caller: the time it was held because
	// its key's round was in flight — zero exactly for an access that found
	// its key free — and the round it shares with its chain (lead).
	p.sessions = reg.Stages("ortoa_agg", "single LBL access per-caller stage latency", "key_wait", "batch_rpc")
	reg.CounterFunc("ortoa_agg_expired_total", "held accesses answered unsent because their deadline passed before their chain left", p.counters.expired.Load)
	p.mx = lblProxyObs{
		keys: reg.Counter("ortoa_lbl_round_accesses_total", "accesses carried by LBL rounds"),
		chainLen: reg.Histogram("ortoa_agg_chain_accesses",
			"single accesses a round carried, sent as one key's chain: 1 for an access that found its key free (integer count on the duration scale)"),
		frames: reg.Counter("ortoa_lbl_request_frames_total", "LBL request frames sealed (more than one per round when the frame budget cuts requests)"),

		reconciledKeys: reg.Counter("ortoa_lbl_reconciled_keys_total", "key counters rebased up to the record a stale answer reported"),
		rolledBackKeys: reg.Counter("ortoa_lbl_rolled_back_keys_total", "stale answers reporting a record behind the proxy's counter (a server rollback; the access failed)"),
	}
}

// lblServerObs instruments the untrusted LBL server's handler work:
// the atomic read-decrypt-install of steps 2.1–2.2.
type lblServerObs struct {
	access *obs.Histogram
}

// Instrument registers the server's metrics (ortoa_lbl_server_*) with
// reg, including scrape-time views of the ops and decrypt-attempt
// totals the server already tracks. Call before Register.
func (s *LBLServer) Instrument(reg *obs.Registry) {
	reg.CounterFunc("ortoa_lbl_server_ops_total", "LBL accesses served", s.ops.Load)
	reg.CounterFunc("ortoa_lbl_server_decrypt_attempts_total",
		"authenticated decryptions attempted (the cost §10.2 halves)", s.decryptAttempts.Load)
	reg.CounterFunc("ortoa_lbl_server_expired_rounds_total",
		"accesses dropped because their deadline budget expired before trial decryption", s.expiredRounds.Load)
	s.mx = lblServerObs{
		access: reg.Histogram("ortoa_lbl_server_access_seconds", "store read + label swap per access (§5.2 steps 2.1–2.2)"),
	}
}

// Instrument registers the client's stage family (ortoa_fhe_*) with
// reg. Call before serving accesses.
func (c *FHEClient) Instrument(reg *obs.Registry) { c.stages = fheStages(reg) }

// fheServerObs instruments the homomorphic evaluation of Pcr'.
type fheServerObs struct {
	eval *obs.Histogram
}

// Instrument registers the server's metrics (ortoa_fhe_server_*) with
// reg. Call before Register.
func (s *FHEServer) Instrument(reg *obs.Registry) {
	s.mx = fheServerObs{
		eval: reg.Histogram("ortoa_fhe_server_eval_seconds", "homomorphic Pcr' evaluation per access (§3.1)"),
	}
}

// Instrument registers the client's stage family (ortoa_tee_*) with
// reg. Call before serving accesses.
func (c *TEEClient) Instrument(reg *obs.Registry) { c.stages = teeStages(reg) }

// teeServerObs instruments the host-side handler and the enclave
// crossing it pays per access.
type teeServerObs struct {
	access *obs.Histogram
	ecall  *obs.Histogram
}

// Instrument registers the server's metrics (ortoa_tee_server_*) with
// reg. Call before Register.
func (s *TEEServer) Instrument(reg *obs.Registry) {
	s.mx = teeServerObs{
		access: reg.Histogram("ortoa_tee_server_access_seconds", "store read + enclave selection per access (§4.1)"),
		ecall:  reg.Histogram("ortoa_tee_server_ecall_seconds", "enclave crossing (ECall) latency"),
	}
}
