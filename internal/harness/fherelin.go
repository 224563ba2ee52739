package harness

import (
	"fmt"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/fhe"
	"ortoa/internal/netsim"
	"ortoa/internal/tier"
	"ortoa/internal/transport"
)

// FHERelinAblation contrasts FHE-ORTOA with and without
// relinearization keys (an extension beyond the paper's prototype,
// which used neither). It shows exactly which §3.3 problem
// relinearization solves — ciphertext growth — and which it does not:
// the noise drain that caps accesses per object.
func FHERelinAblation(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ablation-fhe-relin",
		Title:   "FHE-ORTOA with vs without relinearization (per-access trajectory)",
		Columns: []string{"relin", "access", "ct-degree", "ct-size(B)", "noise-budget(bits)", "ok"},
	}
	n, qBits := 256, 260
	maxAccesses := 16
	if opt.Quick {
		n, qBits = 64, 220
		maxAccesses = 10
	}
	params, err := fhe.NewParameters(n, qBits)
	if err != nil {
		return nil, err
	}
	valueSize := min(32, params.PlaintextCapacity()-2)

	type outcome struct {
		failedAt  int
		finalSize int
	}
	outcomes := map[bool]outcome{}

	for _, relin := range []bool{false, true} {
		cfg := core.FHEConfig{Params: params, MaxDegree: 64}
		if relin {
			cfg.RelinBaseBits = 24 // the client provisions an evaluation key at setup
		}
		rig, err := newFHERig(cfg, valueSize)
		if err != nil {
			return nil, err
		}
		failedAt, last, err := rig.exhaust(maxAccesses, func(access int, st fheObjectState) {
			t.AddRow(fmt.Sprint(relin), fmt.Sprint(access), st.degree, fmt.Sprint(st.size), fmt.Sprint(st.budget), fmt.Sprint(st.ok))
		})
		rig.Close()
		if err != nil {
			return nil, err
		}
		outcomes[relin] = outcome{failedAt: failedAt, finalSize: last.size}
	}

	plain, rl := outcomes[false], outcomes[true]
	t.Notes = append(t.Notes,
		fmt.Sprintf("without relin: ciphertext grows every access (final %d B); with relin: constant degree 1 (final %d B)",
			plain.finalSize, rl.finalSize))
	if plain.failedAt > 0 && rl.failedAt > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("noise failure at access %d (plain) vs %d (relin): relinearization fixes size, not the §3.3 noise wall — bootstrapping would be needed",
				plain.failedAt, rl.failedAt))
	}
	return t, nil
}

// An fheRig is one FHE-ORTOA server/client pair over a loopback link,
// holding a single object — what the §3.3 experiments access until the
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
	got, _, err := r.px.Accessor.Access(core.OpRead, "object", nil)
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

// exhaust reads the object up to limit times, handing each access's
// outcome to row, and stops at the first read that no longer decrypts
// to the object's value. It returns that access's number (0 if every
// read decrypted) and the object's final state.
func (r *fheRig) exhaust(limit int, row func(access int, st fheObjectState)) (failedAt int, last fheObjectState, err error) {
	for access := 1; access <= limit; access++ {
		if last, err = r.access(); err != nil {
			return 0, last, err
		}
		row(access, last)
		if !last.ok {
			return access, last, nil
		}
	}
	return 0, last, nil
}
