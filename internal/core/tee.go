package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
	"ortoa/internal/tee"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// teeProgramID names the trusted selector program; its measurement is
// what the verifier checks before provisioning the data key.
var teeProgramID = []byte("ortoa/tee-selector-v1")

// teeSelector is Procedure Pcr' (§4.1) as the enclave program: decrypt
// the selector bit and both values, pick v_old for reads or v_new for
// writes, and release only a fresh re-encryption of the chosen value.
// The host cannot tell which branch ran — both produce one ciphertext
// of identical length and fresh randomness.
func teeSelector(key, payload []byte) ([]byte, error) {
	box, err := secretbox.NewBox(key)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(payload)
	sealedCr := r.BytesPfx()
	sealedOld := r.BytesPfx()
	sealedNew := r.BytesPfx()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	crPlain, err := box.Open(sealedCr)
	if err != nil {
		return nil, fmt.Errorf("tee selector: c_r: %w", err)
	}
	vOld, err := box.Open(sealedOld)
	if err != nil {
		return nil, fmt.Errorf("tee selector: v_old: %w", err)
	}
	vNew, err := box.Open(sealedNew)
	if err != nil {
		return nil, fmt.Errorf("tee selector: v_new: %w", err)
	}
	if len(crPlain) != 1 || crPlain[0] > 1 {
		return nil, errors.New("tee selector: malformed c_r")
	}
	if len(vOld) != len(vNew) {
		return nil, errors.New("tee selector: value length mismatch")
	}
	chosen := vNew
	if crPlain[0] == 1 {
		chosen = vOld
	}
	return box.Seal(chosen), nil
}

// A TEEServer is the untrusted host plus its enclave (§4.1): it
// fetches v_old outside the enclave (non-sensitive), crosses into the
// enclave for the selection, and installs the enclave's output.
type TEEServer struct {
	store   *kvstore.Store
	enclave *tee.Enclave
	mx      teeServerObs
}

// NewTEEServer creates the host and loads the selector enclave.
// transitionCost models the enclave entry/exit overhead per ECall.
func NewTEEServer(store *kvstore.Store, transitionCost time.Duration) (*TEEServer, error) {
	enclave, err := tee.Create(tee.Config{
		Program:        teeSelector,
		ProgramID:      teeProgramID,
		TransitionCost: transitionCost,
	})
	if err != nil {
		return nil, err
	}
	return &TEEServer{store: store, enclave: enclave}, nil
}

// Enclave exposes the enclave for attestation and provisioning by the
// trusted side.
func (s *TEEServer) Enclave() *tee.Enclave { return s.enclave }

// Register installs the TEE access handler on ts, plus the
// attestation/provisioning setup handlers used by remote trusted
// parties.
func (s *TEEServer) Register(ts *transport.Server) {
	ts.Handle(MsgTEEAccess, s.handleAccess)
	ts.Handle(MsgTEEAttest, s.handleAttest)
	ts.Handle(MsgTEEProvision, s.handleProvision)
}

// handleAttest returns the enclave's report over the caller's nonce.
func (s *TEEServer) handleAttest(_ context.Context, payload []byte) ([]byte, error) {
	if len(payload) != 16 {
		return nil, errors.New("core: attestation nonce must be 16 bytes")
	}
	var nonce [16]byte
	copy(nonce[:], payload)
	report := s.enclave.Attest(nonce)
	w := wire.NewWriter(32 + 16 + 32)
	w.Raw(report.Measurement[:])
	w.Raw(report.Nonce[:])
	w.Raw(report.MAC[:])
	return w.Bytes(), nil
}

// handleProvision installs the data key into the enclave. The host
// just forwards bytes; in a real deployment this payload arrives
// inside the attested secure channel (RA-TLS) so the host never sees
// the key. The simulation documents the boundary rather than
// encrypting against the simulated host.
func (s *TEEServer) handleProvision(_ context.Context, payload []byte) ([]byte, error) {
	if err := s.enclave.Provision(payload); err != nil {
		return nil, err
	}
	return nil, nil
}

func (s *TEEServer) handleAccess(ctx context.Context, payload []byte) ([]byte, error) {
	iv := obs.Time(s.mx.access, trace.StartChild(ctx, "server_ecall"))
	defer iv.End()
	r := wire.NewReader(payload)
	encKey := r.Raw(prf.Size)
	sealedCr := r.BytesPfx()
	sealedNew := r.BytesPfx()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	var result []byte
	err := s.store.Update(string(encKey), func(old []byte) ([]byte, error) {
		w := wire.NewWriter(len(sealedCr) + len(old) + len(sealedNew) + 16)
		w.BytesPfx(sealedCr)
		w.BytesPfx(old)
		w.BytesPfx(sealedNew)
		ecall := obs.Time(s.mx.ecall, nil)
		out, err := s.enclave.ECall(w.Bytes())
		ecall.End()
		if err != nil {
			return nil, err
		}
		result = out
		return out, nil
	})
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	return result, nil
}

// TEEConfig fixes the parameters of a TEE-ORTOA deployment.
type TEEConfig struct {
	// ValueSize is the fixed plaintext value length in bytes.
	ValueSize int
}

// A TEEClient is the trusted side of TEE-ORTOA. The paper treats this
// version as proxy-less — clients share the symmetric data key (§4) —
// so the "client" here may equally be deployed as a proxy.
type TEEClient struct {
	cfg    TEEConfig
	prf    *prf.PRF
	box    *secretbox.Box
	key    []byte
	client *transport.Client
	stageObs
}

// NewTEEClient returns a trusted client keyed with dataKey.
func NewTEEClient(cfg TEEConfig, f *prf.PRF, dataKey []byte, client *transport.Client) (*TEEClient, error) {
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("core: TEE value size %d must be positive", cfg.ValueSize)
	}
	box, err := secretbox.NewBox(dataKey)
	if err != nil {
		return nil, err
	}
	return &TEEClient{cfg: cfg, prf: f, box: box, key: append([]byte(nil), dataKey...), client: client,
		stageObs: stageObs{stages: teeStages(nil)}}, nil
}

// AttestAndProvision verifies the enclave runs the expected selector
// program and provisions the data key into it (in-process deployment).
func (c *TEEClient) AttestAndProvision(e *tee.Enclave) error {
	return tee.NewVerifier(teeProgramID).AttestAndProvision(e, c.key)
}

// AttestAndProvisionRemote performs the attestation handshake over the
// client's server connection: challenge with a fresh nonce, verify the
// report's MAC and measurement, then provision the data key.
func (c *TEEClient) AttestAndProvisionRemote() error {
	if c.client == nil {
		return errors.New("core: TEE client has no server connection")
	}
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return err
	}
	resp, err := c.client.Call(MsgTEEAttest, nonce[:])
	if err != nil {
		return err
	}
	r := wire.NewReader(resp)
	var report tee.Report
	copy(report.Measurement[:], r.Raw(32))
	copy(report.Nonce[:], r.Raw(16))
	copy(report.MAC[:], r.Raw(32))
	if err := r.Err(); err != nil {
		return err
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if report.Nonce != nonce {
		return tee.ErrBadReport
	}
	if err := tee.VerifyReport(report, teeProgramID); err != nil {
		return err
	}
	_, err = c.client.Call(MsgTEEProvision, c.key)
	return err
}

// BuildRecord encodes the initial record for (key, value).
func (c *TEEClient) BuildRecord(key string, value []byte) (string, []byte, error) {
	if len(value) != c.cfg.ValueSize {
		return "", nil, ErrValueSize
	}
	ek := c.prf.EncodeKey(key)
	return string(ek[:]), c.box.Seal(value), nil
}

// AccessContext performs one oblivious access (§4.1) under ctx. Reads
// send an indistinguishable random dummy as v_new; the enclave discards
// it.
func (c *TEEClient) AccessContext(ctx context.Context, op Op, key string, newValue []byte) (value []byte, err error) {
	if op == OpWrite && len(newValue) != c.cfg.ValueSize {
		return nil, ErrValueSize
	}
	if c.client == nil {
		return nil, errors.New("core: TEE client has no server connection")
	}
	cr := byte(0)
	vNew := newValue
	if op == OpRead {
		cr = 1
		vNew = make([]byte, c.cfg.ValueSize)
		if _, err := rand.Read(vNew); err != nil {
			return nil, err
		}
	}
	clk, ctx := c.start(ctx, "tee_access")
	clk.Enter(teeSeal)
	ek := c.prf.EncodeKey(key)
	defer func() { clk.Done(1, failedAccesses(err), func() string { return traceLabel(ek) }) }()
	w := wire.NewWriter(prf.Size + 2*c.cfg.ValueSize)
	w.Raw(ek[:])
	w.BytesPfx(c.box.Seal([]byte{cr}))
	w.BytesPfx(c.box.Seal(vNew))

	clk.Enter(teeRPC)
	resp, err := c.client.CallContext(clk.Context(ctx), MsgTEEAccess, w.Bytes())
	if err != nil {
		return nil, err
	}
	clk.Enter(teeOpen)
	return c.result(resp)
}

// result opens the server's answer: it must be a sealing of a ValueSize
// value under the data key, and anything else is ErrTampered.
func (c *TEEClient) result(resp []byte) ([]byte, error) {
	value, err := c.box.Open(resp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if len(value) != c.cfg.ValueSize {
		return nil, fmt.Errorf("%w: result has %d bytes", ErrTampered, len(value))
	}
	return value, nil
}
