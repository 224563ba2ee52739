package core

import (
	"context"
	"errors"
	"fmt"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// A BaselineServer is the storage side of the two-round-trip (2RTT)
// baseline (§6): a plain encrypted GET/PUT store. Operation-type
// privacy comes entirely from the proxy issuing a read round followed
// by a write round for every client request.
type BaselineServer struct {
	store *kvstore.Store
}

// NewBaselineServer returns a server over store.
func NewBaselineServer(store *kvstore.Store) *BaselineServer {
	return &BaselineServer{store: store}
}

// Register installs the GET and PUT handlers on ts.
func (s *BaselineServer) Register(ts *transport.Server) {
	ts.Handle(MsgBaselineGet, s.handleGet)
	ts.Handle(MsgBaselinePut, s.handlePut)
}

func (s *BaselineServer) handleGet(_ context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	encKey := r.Raw(prf.Size)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	v, err := s.store.Get(string(encKey))
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

func (s *BaselineServer) handlePut(_ context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	encKey := r.Raw(prf.Size)
	sealed := r.BytesCopy()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	s.store.Put(string(encKey), sealed)
	return nil, nil
}

// BaselineConfig fixes the parameters of a 2RTT deployment.
type BaselineConfig struct {
	// ValueSize is the fixed plaintext value length in bytes.
	ValueSize int
}

// A BaselineProxy hides operation types the way existing oblivious
// datastores do (§1.1, §6): every client request becomes a GET round
// followed by a PUT round. Reads re-encrypt the fetched value with
// fresh randomness; writes encrypt the new value; the server cannot
// tell them apart — at the cost of a second round trip.
type BaselineProxy struct {
	cfg    BaselineConfig
	prf    *prf.PRF
	box    *secretbox.Box
	locks  *counterTable // per-key serialization of get→put pairs
	client *transport.Client
}

// NewBaselineProxy returns a proxy keyed with dataKey.
func NewBaselineProxy(cfg BaselineConfig, f *prf.PRF, dataKey []byte, client *transport.Client) (*BaselineProxy, error) {
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("core: baseline value size %d must be positive", cfg.ValueSize)
	}
	box, err := secretbox.NewBox(dataKey)
	if err != nil {
		return nil, err
	}
	return &BaselineProxy{cfg: cfg, prf: f, box: box, locks: newCounterTable(), client: client}, nil
}

// BuildRecord encodes the initial record for (key, value).
func (p *BaselineProxy) BuildRecord(key string, value []byte) (string, []byte, error) {
	if len(value) != p.cfg.ValueSize {
		return "", nil, ErrValueSize
	}
	ek := p.prf.EncodeKey(key)
	return string(ek[:]), p.box.Seal(value), nil
}

// AccessContext performs the two-round read-then-write dance under ctx.
func (p *BaselineProxy) AccessContext(ctx context.Context, op Op, key string, newValue []byte) ([]byte, error) {
	if op == OpWrite && len(newValue) != p.cfg.ValueSize {
		return nil, ErrValueSize
	}
	if p.client == nil {
		return nil, errors.New("core: baseline proxy has no server connection")
	}
	// Serialize per key so a concurrent get→put pair cannot interleave
	// and lose an update.
	entry := p.locks.acquire(key)
	defer p.locks.release(entry)

	ek := p.prf.EncodeKey(key)

	// Round 1: GET.
	getReq := make([]byte, prf.Size)
	copy(getReq, ek[:])
	sealed, err := p.client.CallContext(ctx, MsgBaselineGet, getReq)
	if err != nil {
		return nil, err
	}
	value, err := p.box.Open(sealed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if len(value) != p.cfg.ValueSize {
		return nil, fmt.Errorf("%w: stored value has %d bytes", ErrTampered, len(value))
	}

	// Round 2: PUT a fresh encryption — of the same value for reads,
	// of the new value for writes. AES-GCM's random nonces make the
	// two indistinguishable.
	toStore := value
	if op == OpWrite {
		toStore = newValue
	}
	w := wire.NewWriter(prf.Size + len(toStore) + secretbox.Overhead + 8)
	w.Raw(ek[:])
	w.BytesPfx(p.box.Seal(toStore))
	if _, err := p.client.CallContext(ctx, MsgBaselinePut, w.Bytes()); err != nil {
		return nil, err
	}
	return toStore, nil
}
