package core

import (
	"context"
	"errors"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
)

// This file exports fixtures for the two dominant LBL-ORTOA CPU
// kernels — proxy-side table construction and the server recover/apply
// pass plus proxy recovery — so the repository benchmark's
// per-layer ledger and the benchmark smoke job measure the real hot
// paths with explicit worker counts, without a transport in the way.

// A TableBuildKernel repeatedly builds one access's encryption table
// (§5.2 steps 1.2–1.5) into a reused buffer.
type TableBuildKernel struct {
	proxy   *LBLProxy
	table   []byte
	spec    tableSpec
	workers int
}

// NewTableBuildKernel returns a kernel for cfg that builds each table
// with the given worker count (0 or 1 means sequential).
func NewTableBuildKernel(cfg LBLConfig, workers int) (*TableBuildKernel, error) {
	p, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
	if err != nil {
		return nil, err
	}
	news, olds := cfg.carve(make([]byte, cfg.scheduleBytes()))
	return &TableBuildKernel{
		proxy:   p,
		table:   make([]byte, cfg.TableBytes()),
		spec:    tableSpec{op: OpWrite, key: "bench", value: make([]byte, cfg.ValueSize), news: news, olds: olds},
		workers: workers,
	}, nil
}

// TableBytes returns the size of the table each Op builds.
func (k *TableBuildKernel) TableBytes() int { return len(k.table) }

// Op builds one table. It is write-shaped; by design reads cost the
// same (operation-type obliviousness).
func (k *TableBuildKernel) Op() error {
	k.spec.ct++
	return k.proxy.buildGroups(k.table, &k.spec, 0, k.proxy.cfg.Groups(), k.workers)
}

// A RecoverKernel repeatedly performs one access's server half — trial
// decryption and label install (§5.2 steps 2.1–2.2) — followed by the
// proxy's recovery and §5.4 integrity check, against prebuilt requests.
// Table construction is paid in Prepare, outside the measured op;
// Prepare keeps each table's schedule, as a round does, for Op to
// recover against.
type RecoverKernel struct {
	proxy  *LBLProxy
	srv    *LBLServer
	tables [][]byte    // whole one-key requests, as the handler receives them
	specs  []tableSpec // what each table was built from, schedule included
	ct     uint64      // counter the record sits at; tables[used:] are built from it
	used   int
}

// NewRecoverKernel returns a kernel for cfg holding window prebuilt
// tables per Prepare. The last argument, once the recovery's worker
// count, is ignored: recovery is one pass over the slot and no longer
// fans out.
func NewRecoverKernel(cfg LBLConfig, window, _ int) (*RecoverKernel, error) {
	p, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
	if err != nil {
		return nil, err
	}
	store := kvstore.New()
	ek, rec, err := p.BuildRecord("bench", make([]byte, cfg.ValueSize))
	if err != nil {
		return nil, err
	}
	if err := store.Put(ek, rec); err != nil {
		return nil, err
	}
	k := &RecoverKernel{
		proxy:  p,
		srv:    NewLBLServer(store),
		tables: make([][]byte, window),
		specs:  make([]tableSpec, window),
	}
	for i := range k.tables {
		k.tables[i] = make([]byte, cfg.RequestBytesPerAccess())
		news, olds := cfg.carve(make([]byte, cfg.scheduleBytes()))
		k.specs[i] = tableSpec{op: OpRead, key: "bench", news: news, olds: olds}
	}
	return k, nil
}

// Window returns the number of ops one Prepare provisions.
func (k *RecoverKernel) Window() int { return len(k.tables) }

// Prepare rebuilds the window of tables at the record's next counters.
// Call it before each run of Window() Ops.
func (k *RecoverKernel) Prepare() error {
	whole := []run{{seg: 0, g0: 0, g1: k.proxy.cfg.Groups()}}
	for i := range k.tables {
		k.specs[i].ct = k.ct + uint64(i)
		if err := k.proxy.buildFrame(k.tables[i], whole, k.specs[i:i+1]); err != nil {
			return err
		}
	}
	k.used = 0
	return nil
}

// Op applies the next prepared table at the server and recovers the
// value at the proxy.
func (k *RecoverKernel) Op() error {
	if k.used >= len(k.tables) {
		return errors.New("core: recover kernel window exhausted; call Prepare")
	}
	resp, err := k.srv.handleAccess(context.Background(), k.tables[k.used])
	if err != nil {
		return err
	}
	if err := slotError(resp[0]); err != nil {
		return err
	}
	_, err = k.proxy.recoverSlot(OpRead, nil, &k.specs[k.used], resp[1:])
	k.used++
	k.ct++
	return err
}
