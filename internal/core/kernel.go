package core

import (
	"context"
	"errors"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
)

// This file exports fixtures for the two dominant LBL-ORTOA CPU
// kernels — proxy-side table construction and the server recover/apply
// pass plus proxy label recovery — so the repository benchmark's
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
	return &TableBuildKernel{
		proxy: p,
		table: make([]byte, cfg.TableBytes()),
		spec: tableSpec{op: OpWrite, key: "bench", value: make([]byte, cfg.ValueSize),
			news: make([]byte, cfg.scheduleBytes())},
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
// proxy's label recovery and §5.4 integrity check, against prebuilt
// requests. Table construction is paid in Prepare, outside the measured
// op; Prepare keeps each table's schedule, as a round does, for Op to
// recover against.
type RecoverKernel struct {
	proxy   *LBLProxy
	srv     *LBLServer
	tables  [][]byte // whole one-key requests, as the handler receives them
	news    [][]byte // the schedule each table installs
	workers int
	ct      uint64 // counter the record sits at; tables[used:] are built from it
	used    int
}

// NewRecoverKernel returns a kernel for cfg holding window prebuilt
// tables per Prepare; the proxy-side recovery runs with the given
// worker count.
func NewRecoverKernel(cfg LBLConfig, window, workers int) (*RecoverKernel, error) {
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
		proxy:   p,
		srv:     NewLBLServer(store),
		tables:  make([][]byte, window),
		news:    make([][]byte, window),
		workers: workers,
	}
	for i := range k.tables {
		k.tables[i] = make([]byte, cfg.RequestBytesPerAccess())
		k.news[i] = make([]byte, cfg.scheduleBytes())
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
		spec := []tableSpec{{op: OpRead, key: "bench", ct: k.ct + uint64(i), news: k.news[i]}}
		if err := k.proxy.buildFrame(k.tables[i], whole, spec); err != nil {
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
	_, err = k.proxy.recoverWorkers(OpRead, nil, k.news[k.used], resp[1:], k.workers)
	k.used++
	k.ct++
	return err
}
