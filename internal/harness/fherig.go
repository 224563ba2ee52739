package harness

import (
	"context"
	"fmt"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/fhe"
	"ortoa/internal/netsim"
	"ortoa/internal/tier"
	"ortoa/internal/transport"
)

// An fheRig is one FHE-ORTOA server/client pair over a loopback link,
// holding a single object — what the §3.3 experiment accesses until the
// noise budget gives out.
type fheRig struct {
	srv    *tier.Server
	px     *tier.Proxy
	params fhe.Parameters
	ek     string
	value  []byte
}

func newFHERig(cfg core.FHEConfig, valueSize int) (*fheRig, error) {
	srv, err := tier.NewServer(tier.ServerConfig{Protocol: tier.FHE, ValueSize: valueSize, FHE: cfg})
	if err != nil {
		return nil, err
	}
	listener := netsim.Listen(netsim.Loopback)
	go srv.Transport.Serve(listener) //nolint:errcheck // returns on Close
	r := &fheRig{srv: srv, params: cfg.Params, value: make([]byte, valueSize)}
	r.px, err = tier.NewProxy(tier.ProxyConfig{
		Protocol: tier.FHE, ValueSize: valueSize, PRF: prf.NewRandom(), FHE: cfg,
		Transport: transport.Options{PoolSize: 1},
	}, listener.Dial)
	if err != nil {
		srv.Close()
		return nil, err
	}
	for i := range r.value {
		r.value[i] = byte(i)
	}
	var rec []byte
	if r.ek, rec, err = r.px.BuildRecord("object", r.value); err == nil {
		err = srv.Store.Put(r.ek, rec)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func (r *fheRig) Close() {
	r.px.Close()  //nolint:errcheck // best-effort teardown
	r.srv.Close() //nolint:errcheck
}

// fheObjectState is the stored ciphertext after one access.
type fheObjectState struct {
	degree string // "-" when the record no longer parses
	budget int    // remaining noise budget in bits, -1 when unmeasurable
	size   int    // record bytes
	ok     bool   // the access decrypted to the object's value
}

// access reads the object once and inspects what the server now stores.
func (r *fheRig) access() (fheObjectState, error) {
	got, err := r.px.Accessor.AccessContext(context.Background(), core.OpRead, "object", nil)
	st := fheObjectState{degree: "-", ok: err == nil && string(got) == string(r.value)}
	rec, err := r.srv.Store.Get(r.ek)
	if err != nil {
		return st, err
	}
	st.size = len(rec)
	if ct, err := fhe.UnmarshalCiphertext(r.params, rec); err == nil {
		st.degree = fmt.Sprint(ct.Degree())
	}
	if st.budget, err = r.px.FHE.NoiseBudgetOf(rec); err != nil {
		st.budget = -1
	}
	return st, nil
}
