package core

import (
	"context"
	"errors"
	"fmt"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/fhe"
	"ortoa/internal/kvstore"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// FHEConfig fixes the parameters of an FHE-ORTOA deployment.
type FHEConfig struct {
	// Params is the BFV parameter set shared by client and server
	// (public; only the secret key stays with the trusted side).
	Params fhe.Parameters
	// ValueSize is the fixed plaintext value length in bytes.
	ValueSize int
	// MaxDegree caps stored ciphertext degree. Each access grows the
	// stored ciphertext's degree by one (no relinearization keys);
	// past the cap the server refuses, mirroring the point where
	// SEAL's noise made FHE-ORTOA unusable (§3.3).
	MaxDegree int
}

func (c FHEConfig) withDefaults() FHEConfig {
	if c.MaxDegree == 0 {
		c.MaxDegree = 24
	}
	return c
}

func (c FHEConfig) validate() error {
	if c.ValueSize <= 0 {
		return fmt.Errorf("core: FHE value size %d must be positive", c.ValueSize)
	}
	if c.ValueSize > c.Params.PlaintextCapacity()-2 {
		return fmt.Errorf("core: value size %d exceeds plaintext capacity %d", c.ValueSize, c.Params.PlaintextCapacity()-2)
	}
	return nil
}

// An FHEServer is the untrusted side of FHE-ORTOA: it evaluates
// Procedure Pcr' (§3.1) homomorphically — res = ct_old·ct_r +
// ct_new·ct_w — learning neither the values nor which selector bit is
// set.
type FHEServer struct {
	params    fhe.Parameters
	maxDegree int
	store     *kvstore.Store
	mx        fheServerObs
}

// NewFHEServer returns a server evaluating under params.
func NewFHEServer(store *kvstore.Store, cfg FHEConfig) *FHEServer {
	cfg = cfg.withDefaults()
	return &FHEServer{params: cfg.Params, maxDegree: cfg.MaxDegree, store: store}
}

// Register installs the FHE access handler on ts.
func (s *FHEServer) Register(ts *transport.Server) {
	ts.Handle(MsgFHEAccess, s.handleAccess)
}

func (s *FHEServer) handleAccess(ctx context.Context, payload []byte) ([]byte, error) {
	iv := obs.Time(s.mx.eval, trace.StartChild(ctx, "server_fhe_eval"))
	defer iv.End()
	r := wire.NewReader(payload)
	encKey := r.Raw(prf.Size)
	rawR := r.BytesPfx()
	rawW := r.BytesPfx()
	rawNew := r.BytesPfx()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	ctR, err := fhe.UnmarshalCiphertext(s.params, rawR)
	if err != nil {
		return nil, fmt.Errorf("core: c_r: %w", err)
	}
	ctW, err := fhe.UnmarshalCiphertext(s.params, rawW)
	if err != nil {
		return nil, fmt.Errorf("core: c_w: %w", err)
	}
	ctNew, err := fhe.UnmarshalCiphertext(s.params, rawNew)
	if err != nil {
		return nil, fmt.Errorf("core: v_new: %w", err)
	}
	if ctNew.Degree()+ctW.Degree() > s.maxDegree {
		return nil, fmt.Errorf("core: ciphertext degree cap %d exceeded by v_new·c_w: %w", s.maxDegree, fhe.ErrNoiseOverflow)
	}

	var result []byte
	err = s.store.Update(string(encKey), func(old []byte) ([]byte, error) {
		ctOld, err := fhe.UnmarshalCiphertext(s.params, old)
		if err != nil {
			return nil, fmt.Errorf("core: stored ciphertext: %w", err)
		}
		if ctOld.Degree()+ctR.Degree() > s.maxDegree {
			return nil, fmt.Errorf("core: ciphertext degree cap %d reached: %w", s.maxDegree, fhe.ErrNoiseOverflow)
		}
		left, err := s.params.Mul(ctOld, ctR)
		if err != nil {
			return nil, err
		}
		right, err := s.params.Mul(ctNew, ctW)
		if err != nil {
			return nil, err
		}
		res := s.params.Add(left, right)
		result = res.Marshal(s.params)
		return result, nil
	})
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	return result, nil
}

// An FHEClient is the trusted side of FHE-ORTOA; like TEE-ORTOA it is
// proxy-less when clients share the secret key (§3.1).
type FHEClient struct {
	cfg    FHEConfig
	prf    *prf.PRF
	sk     *fhe.SecretKey
	client *transport.Client
	stageObs
}

// NewFHEClient generates a fresh secret key for cfg.Params.
func NewFHEClient(cfg FHEConfig, f *prf.PRF, client *transport.Client) (*FHEClient, error) {
	sk, err := cfg.Params.KeyGen()
	if err != nil {
		return nil, err
	}
	return NewFHEClientWithKey(cfg, f, sk, client)
}

// NewFHEClientWithKey builds a client around an existing secret key,
// for deployments where trusted parties share it (§3.1).
func NewFHEClientWithKey(cfg FHEConfig, f *prf.PRF, sk *fhe.SecretKey, client *transport.Client) (*FHEClient, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &FHEClient{cfg: cfg, prf: f, sk: sk, client: client, stageObs: stageObs{stages: fheStages(nil)}}, nil
}

// SecretKey returns the client's BFV secret key, for sharing with
// other trusted parties.
func (c *FHEClient) SecretKey() *fhe.SecretKey { return c.sk }

func (c *FHEClient) encryptValue(value []byte) (*fhe.Ciphertext, error) {
	coeffs, err := c.cfg.Params.EncodeBytes(value)
	if err != nil {
		return nil, err
	}
	return c.cfg.Params.Encrypt(c.sk, coeffs)
}

// BuildRecord encodes the initial record for (key, value).
func (c *FHEClient) BuildRecord(key string, value []byte) (string, []byte, error) {
	if len(value) != c.cfg.ValueSize {
		return "", nil, ErrValueSize
	}
	ct, err := c.encryptValue(value)
	if err != nil {
		return "", nil, err
	}
	ek := c.prf.EncodeKey(key)
	return string(ek[:]), ct.Marshal(c.cfg.Params), nil
}

// NoiseBudgetOf measures the remaining noise budget of the ciphertext
// stored in record — the quantity the §3.3 experiment tracks across
// repeated accesses.
func (c *FHEClient) NoiseBudgetOf(record []byte) (int, error) {
	ct, err := fhe.UnmarshalCiphertext(c.cfg.Params, record)
	if err != nil {
		return 0, err
	}
	return c.cfg.Params.NoiseBudget(c.sk, ct)
}

// Access performs one oblivious access (§3.1): it sends FHE(c_r),
// FHE(c_w), and FHE(v_new) and decrypts the homomorphic result. After
// too many accesses to the same object the accumulated noise corrupts
// decryption; the error wraps fhe.ErrNoiseOverflow.
func (c *FHEClient) Access(op Op, key string, newValue []byte) (value []byte, stats AccessStats, err error) {
	if op == OpWrite && len(newValue) != c.cfg.ValueSize {
		return nil, stats, ErrValueSize
	}
	if c.client == nil {
		return nil, stats, errors.New("core: FHE client has no server connection")
	}
	crBit, cwBit := 0, 1
	vNew := newValue
	if op == OpRead {
		crBit, cwBit = 1, 0
		vNew = make([]byte, c.cfg.ValueSize) // 'empty' value (§3.1)
	}
	clk, ctx := c.start(context.Background(), "fhe_access")
	clk.Enter(fheEncrypt)
	ek := c.prf.EncodeKey(key)
	defer func() { clk.Done(1, failedAccesses(err), func() string { return traceLabel(ek) }) }()
	params := c.cfg.Params
	ctR, err := params.Encrypt(c.sk, params.EncodeBit(crBit))
	if err != nil {
		return nil, stats, err
	}
	ctW, err := params.Encrypt(c.sk, params.EncodeBit(cwBit))
	if err != nil {
		return nil, stats, err
	}
	ctNew, err := c.encryptValue(vNew)
	if err != nil {
		return nil, stats, err
	}
	w := wire.NewWriter(prf.Size + 3*(params.PlaintextCapacity()*8))
	w.Raw(ek[:])
	w.BytesPfx(ctR.Marshal(params))
	w.BytesPfx(ctW.Marshal(params))
	w.BytesPfx(ctNew.Marshal(params))
	stats.PrepBytes = w.Len()

	clk.Enter(fheRPC)
	resp, err := c.client.CallContext(clk.Context(ctx), MsgFHEAccess, w.Bytes())
	if err != nil {
		return nil, stats, err
	}
	clk.Enter(fheDecrypt)
	stats.RespBytes = len(resp)
	value, err = c.result(resp)
	return value, stats, err
}

// result decrypts the server's answer to exactly ValueSize bytes or
// fails. FHE-ORTOA has no integrity check (§3.1): a server may answer
// with any well-formed ciphertext, which decrypts to some value, so a
// result is only as good as the server that computed it.
func (c *FHEClient) result(resp []byte) ([]byte, error) {
	params := c.cfg.Params
	res, err := fhe.UnmarshalCiphertext(params, resp)
	if err != nil {
		return nil, err
	}
	coeffs, err := params.Decrypt(c.sk, res)
	if err != nil {
		return nil, err
	}
	value, err := params.DecodeBytes(coeffs)
	if err != nil {
		return nil, err
	}
	if len(value) != c.cfg.ValueSize {
		return nil, fmt.Errorf("core: decrypted %d bytes, want %d: %w", len(value), c.cfg.ValueSize, fhe.ErrNoiseOverflow)
	}
	return value, nil
}
