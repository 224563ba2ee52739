// Package tee simulates the trusted execution environment TEE-ORTOA
// runs its selection logic in (§4). It stands in for Intel SGX /
// ARM TrustZone, which this environment does not have.
//
// The simulation preserves the interface shape and trust boundary of a
// real enclave rather than its hardware guarantees:
//
//   - an Enclave is created from a measured "program" and exposes only
//     ECall; its internal state (the provisioned data key) is
//     unexported and never crosses the boundary,
//   - a verifier attests the enclave by checking a Report (a MAC over
//     measurement and a caller nonce under a key model standing in for
//     Intel's attestation infrastructure) before provisioning secrets,
//   - each ECall charges a configurable transition cost, modeling the
//     enclave entry/exit overhead the paper observes when concurrency
//     grows past the core count (§6.2.1).
//
// Side channels are explicitly out of scope, as in the paper (§4.3).
package tee

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Errors returned across the enclave boundary.
var (
	// ErrNotProvisioned reports an ECall before key provisioning.
	ErrNotProvisioned = errors.New("tee: enclave has no provisioned key")
	// ErrBadReport reports a failed attestation verification.
	ErrBadReport = errors.New("tee: attestation report verification failed")
	// ErrBadMeasurement reports an attested measurement that does not
	// match the program the verifier expects.
	ErrBadMeasurement = errors.New("tee: enclave measurement mismatch")
)

// A Measurement identifies the code loaded into an enclave (MRENCLAVE
// in SGX terms).
type Measurement [32]byte

// Measure computes the measurement of an enclave program description.
func Measure(program []byte) Measurement {
	return sha256.Sum256(program)
}

// A Report is the enclave's attestation evidence: its measurement
// bound to a verifier-chosen nonce.
type Report struct {
	Measurement Measurement
	Nonce       [16]byte
	MAC         [32]byte
}

// attestationKey stands in for the hardware root of trust that signs
// real SGX quotes. In this simulation it is a process-wide secret
// shared by enclaves and the Verifier, hidden from package clients.
var attestationKey = func() []byte {
	k := make([]byte, 32)
	if _, err := rand.Read(k); err != nil {
		panic("tee: crypto/rand failed: " + err.Error())
	}
	return k
}()

func reportMAC(m Measurement, nonce [16]byte) [32]byte {
	mac := hmac.New(sha256.New, attestationKey)
	mac.Write(m[:])
	mac.Write(nonce[:])
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// An ECallFunc is the trusted program: it runs inside the enclave with
// access to the provisioned key and the call payload, and returns the
// bytes to release to the untrusted host.
type ECallFunc func(key []byte, payload []byte) ([]byte, error)

// An Enclave is a simulated trusted execution environment.
type Enclave struct {
	measurement Measurement
	program     ECallFunc
	transition  time.Duration

	mu  sync.RWMutex
	key []byte // provisioned data key; never leaves the enclave

	ecalls int64
}

// Config controls enclave creation.
type Config struct {
	// Program is the trusted function; ProgramID is the code identity
	// that produces the measurement (a real enclave measures its
	// binary — here code identity must be named explicitly).
	Program   ECallFunc
	ProgramID []byte
	// TransitionCost is charged on every ECall, modeling the
	// enclave entry/exit (EENTER/EEXIT + page-in) overhead.
	TransitionCost time.Duration
}

// Create loads a program into a new enclave.
func Create(cfg Config) (*Enclave, error) {
	if cfg.Program == nil || len(cfg.ProgramID) == 0 {
		return nil, errors.New("tee: Config requires Program and ProgramID")
	}
	return &Enclave{
		measurement: Measure(cfg.ProgramID),
		program:     cfg.Program,
		transition:  cfg.TransitionCost,
	}, nil
}

// Attest produces a Report over the verifier's nonce.
func (e *Enclave) Attest(nonce [16]byte) Report {
	return Report{
		Measurement: e.measurement,
		Nonce:       nonce,
		MAC:         reportMAC(e.measurement, nonce),
	}
}

// Provision installs the data key inside the enclave. In a real
// deployment the key arrives over a secure channel established during
// attestation; the simulation keeps that handshake in the Verifier.
func (e *Enclave) Provision(key []byte) error {
	if len(key) == 0 {
		return errors.New("tee: empty provisioned key")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.key = append([]byte(nil), key...)
	return nil
}

// ECall crosses into the enclave and runs the trusted program.
func (e *Enclave) ECall(payload []byte) ([]byte, error) {
	if e.transition > 0 {
		time.Sleep(e.transition)
	}
	e.mu.RLock()
	key := e.key
	e.mu.RUnlock()
	if key == nil {
		return nil, ErrNotProvisioned
	}
	e.mu.Lock()
	e.ecalls++
	e.mu.Unlock()
	return e.program(key, payload)
}

// ECalls returns the number of calls served, for experiment reporting.
func (e *Enclave) ECalls() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ecalls
}

// VerifyReport checks a report's MAC and that its measurement matches
// the given program identity, without provisioning anything. The
// caller is responsible for nonce freshness.
func VerifyReport(report Report, programID []byte) error {
	want := reportMAC(report.Measurement, report.Nonce)
	if !hmac.Equal(report.MAC[:], want[:]) {
		return ErrBadReport
	}
	if report.Measurement != Measure(programID) {
		return ErrBadMeasurement
	}
	return nil
}

// A Verifier performs remote attestation and key provisioning on
// behalf of the data owner (the proxy/client side of TEE-ORTOA).
type Verifier struct {
	expected Measurement
}

// NewVerifier returns a Verifier that accepts only enclaves running
// the program identified by programID.
func NewVerifier(programID []byte) *Verifier {
	return &Verifier{expected: Measure(programID)}
}

// AttestAndProvision challenges the enclave with a fresh nonce,
// verifies the report, and provisions key on success.
func (v *Verifier) AttestAndProvision(e *Enclave, key []byte) error {
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return fmt.Errorf("tee: nonce: %w", err)
	}
	report := e.Attest(nonce)
	if report.Nonce != nonce {
		return ErrBadReport
	}
	want := reportMAC(report.Measurement, nonce)
	if !hmac.Equal(report.MAC[:], want[:]) {
		return ErrBadReport
	}
	if report.Measurement != v.expected {
		return ErrBadMeasurement
	}
	return e.Provision(key)
}
