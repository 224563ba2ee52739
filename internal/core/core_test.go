package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/fhe"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// rig is an in-process protocol deployment over a loopback netsim link.
type rig struct {
	store  *kvstore.Store
	server *transport.Server
	client *transport.Client
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{store: kvstore.New(), server: transport.NewServer()}
	l := netsim.Listen(netsim.Loopback)
	go r.server.Serve(l)
	t.Cleanup(func() { r.server.Close() })
	RegisterLoader(r.server, r.store)
	c, err := transport.Dial(l.Dial, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r.client = c
	return r
}

type recordBuilder interface {
	BuildRecord(key string, value []byte) (string, []byte, error)
}

func loadData(t *testing.T, r *rig, b recordBuilder, data map[string][]byte) {
	t.Helper()
	var records []KV
	for k, v := range data {
		ek, rec, err := b.BuildRecord(k, v)
		if err != nil {
			t.Fatalf("BuildRecord(%q): %v", k, err)
		}
		records = append(records, KV{Key: ek, Record: rec})
	}
	if err := BulkLoad(r.client, records); err != nil {
		t.Fatal(err)
	}
}

func newLBL(t *testing.T, mode LBLMode, valueSize int) (*rig, *LBLProxy, *LBLServer) {
	t.Helper()
	r := newRig(t)
	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	proxy, err := NewLBLProxy(LBLConfig{ValueSize: valueSize, Mode: mode}, prf.NewRandom(), r.client)
	if err != nil {
		t.Fatal(err)
	}
	return r, proxy, srv
}

// spec returns the tableSpec for op on key at counter ct, with a
// schedule buffer of its own.
func (p *LBLProxy) spec(op Op, key string, value []byte, ct uint64) tableSpec {
	news, olds := p.cfg.carve(make([]byte, p.cfg.scheduleBytes()))
	return tableSpec{op, key, value, ct, news, olds}
}

// buildRequest encodes the whole one-key request for key at counter ct
// — the frame exchange sends when no frame budget cuts it.
func (p *LBLProxy) buildRequest(op Op, key string, value []byte, ct uint64) ([]byte, error) {
	req := make([]byte, p.cfg.RequestBytesPerAccess())
	err := p.buildFrame(req, []run{{seg: 0, g0: 0, g1: p.cfg.Groups()}}, []tableSpec{p.spec(op, key, value, ct)})
	return req, err
}

func allLBLModes() []LBLMode {
	return []LBLMode{LBLBasic, LBLSpaceOpt, LBLPointPermute}
}

func TestLBLReadInitialValue(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			r, proxy, _ := newLBL(t, mode, 4)
			loadData(t, r, proxy, map[string][]byte{
				"alpha": {1, 2, 3, 4},
				"beta":  {0xFF, 0, 0xAA, 0x55},
			})
			got, _, err := proxy.Access(OpRead, "alpha", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
				t.Errorf("read alpha = %v", got)
			}
			got, _, err = proxy.Access(OpRead, "beta", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte{0xFF, 0, 0xAA, 0x55}) {
				t.Errorf("read beta = %v", got)
			}
		})
	}
}

func TestLBLWriteThenRead(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			r, proxy, _ := newLBL(t, mode, 4)
			loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
			want := []byte{0xDE, 0xAD, 0xBE, 0xEF}
			if _, _, err := proxy.Access(OpWrite, "k", want); err != nil {
				t.Fatal(err)
			}
			got, _, err := proxy.Access(OpRead, "k", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("read after write = %x, want %x", got, want)
			}
		})
	}
}

func TestLBLManySequentialAccesses(t *testing.T) {
	// Exercises the counter schedule across many accesses, alternating
	// reads and writes.
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			r, proxy, _ := newLBL(t, mode, 2)
			loadData(t, r, proxy, map[string][]byte{"k": {7, 7}})
			current := []byte{7, 7}
			for i := 0; i < 30; i++ {
				if i%3 == 0 {
					current = []byte{byte(i), byte(i * 3)}
					if _, _, err := proxy.Access(OpWrite, "k", current); err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
				} else {
					got, _, err := proxy.Access(OpRead, "k", nil)
					if err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
					if !bytes.Equal(got, current) {
						t.Fatalf("access %d: read %v, want %v", i, got, current)
					}
				}
			}
		})
	}
}

func TestLBLServerStateChangesOnRead(t *testing.T) {
	// The observable server behaviour must be identical for reads and
	// writes: both replace the stored record.
	r, proxy, _ := newLBL(t, LBLPointPermute, 4)
	loadData(t, r, proxy, map[string][]byte{"k": {9, 9, 9, 9}})
	ek := keyOf(t, r.store)
	before, _ := r.store.Get(ek)
	if _, _, err := proxy.Access(OpRead, "k", nil); err != nil {
		t.Fatal(err)
	}
	after, _ := r.store.Get(ek)
	if bytes.Equal(before, after) {
		t.Error("server record unchanged after a read — reads are distinguishable from writes")
	}
	if len(before) != len(after) {
		t.Error("record length changed — leaks operation information")
	}
}

func keyOf(t *testing.T, s *kvstore.Store) string {
	t.Helper()
	var key string
	n := 0
	s.Range(func(k string, _ []byte) bool {
		key = k
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("store has %d keys, want 1", n)
	}
	return key
}

func TestLBLDecryptAttempts(t *testing.T) {
	// Point-and-permute must do exactly one decryption per group;
	// the shuffled variants average more (§10.2).
	const valueSize = 4
	for _, tc := range []struct {
		mode        LBLMode
		wantExact   bool
		perGroupMax float64
	}{
		{LBLPointPermute, true, 1},
		{LBLBasic, false, 2},
		{LBLSpaceOpt, false, 4},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			r, proxy, srv := newLBL(t, tc.mode, valueSize)
			loadData(t, r, proxy, map[string][]byte{"k": {1, 2, 3, 4}})
			const ops = 20
			for i := 0; i < ops; i++ {
				if _, _, err := proxy.Access(OpRead, "k", nil); err != nil {
					t.Fatal(err)
				}
			}
			groups := proxy.Config().Groups()
			attempts := srv.DecryptAttempts()
			perGroup := float64(attempts) / float64(ops*groups)
			if tc.wantExact && perGroup != 1 {
				t.Errorf("point-permute attempts/group = %.2f, want exactly 1", perGroup)
			}
			if !tc.wantExact {
				if perGroup <= 1 || perGroup > tc.perGroupMax {
					t.Errorf("attempts/group = %.2f, want in (1, %.0f]", perGroup, tc.perGroupMax)
				}
			}
		})
	}
}

func TestLBLValueSizeValidation(t *testing.T) {
	_, proxy, _ := newLBL(t, LBLPointPermute, 4)
	if _, _, err := proxy.Access(OpWrite, "k", []byte{1}); !errors.Is(err, ErrValueSize) {
		t.Errorf("short write = %v, want ErrValueSize", err)
	}
	if _, _, err := proxy.BuildRecord("k", []byte{1, 2, 3}); !errors.Is(err, ErrValueSize) {
		t.Errorf("short BuildRecord = %v, want ErrValueSize", err)
	}
}

func TestLBLMissingKey(t *testing.T) {
	_, proxy, _ := newLBL(t, LBLPointPermute, 4)
	_, _, err := proxy.Access(OpRead, "ghost", nil)
	if err == nil {
		t.Fatal("access to missing key succeeded")
	}
}

func TestLBLTamperDetection(t *testing.T) {
	// A server that answers without opening the table must trip the §5.4
	// check. We simulate a malicious server with a handler that answers
	// slotOK with an all-zero body of the correct length.
	r := newRig(t)
	cfg := LBLConfig{ValueSize: 4, Mode: LBLPointPermute}
	r.server.Handle(MsgLBLAccess, func(_ context.Context, payload []byte) ([]byte, error) {
		return make([]byte, cfg.ResponseBytesPerAccess()), nil
	})
	proxy, err := NewLBLProxy(cfg, prf.NewRandom(), r.client)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = proxy.Access(OpRead, "k", nil)
	if !errors.Is(err, ErrTampered) {
		t.Errorf("forged response error = %v, want ErrTampered", err)
	}
}

func TestLBLCorruptedStoreDetected(t *testing.T) {
	// Flipping bits in the server's stored labels must surface as an
	// error (the server can no longer decrypt any entry).
	r, proxy, _ := newLBL(t, LBLSpaceOpt, 4)
	loadData(t, r, proxy, map[string][]byte{"k": {1, 2, 3, 4}})
	ek := keyOf(t, r.store)
	rec, _ := r.store.Get(ek)
	rec[5] ^= 0xFF
	r.store.Put(ek, rec)
	if _, _, err := proxy.Access(OpRead, "k", nil); err == nil {
		t.Error("access over corrupted store succeeded")
	}
}

func TestLBLConcurrentSameKey(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 2)
	loadData(t, r, proxy, map[string][]byte{"hot": {0, 0}})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				_, _, err = proxy.Access(OpWrite, "hot", []byte{byte(i), 1})
			} else {
				_, _, err = proxy.Access(OpRead, "hot", nil)
			}
			if err != nil {
				t.Errorf("concurrent access %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	// The key must still be readable and consistent afterwards.
	got, _, err := proxy.Access(OpRead, "hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 1 && !bytes.Equal(got, []byte{0, 0}) {
		t.Errorf("final value %v is not any written value", got)
	}
}

func TestLBLConcurrentDistinctKeys(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 2)
	data := map[string][]byte{}
	for i := 0; i < 16; i++ {
		data[fmt.Sprintf("k%d", i)] = []byte{byte(i), byte(i)}
	}
	loadData(t, r, proxy, data)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			for j := 0; j < 5; j++ {
				got, _, err := proxy.Access(OpRead, key, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, data[key]) {
					t.Errorf("key %s read %v", key, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestLBLStatsPopulated(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 4)
	loadData(t, r, proxy, map[string][]byte{"k": {1, 2, 3, 4}})
	_, stats, err := proxy.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrepBytes != proxy.Config().RequestBytesPerAccess() {
		t.Errorf("PrepBytes = %d, want %d", stats.PrepBytes, proxy.Config().RequestBytesPerAccess())
	}
	if stats.RespBytes != proxy.Config().ResponseBytesPerAccess() {
		t.Errorf("RespBytes = %d, want %d", stats.RespBytes, proxy.Config().ResponseBytesPerAccess())
	}
}

func TestLBLCounterState(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 2)
	loadData(t, r, proxy, map[string][]byte{"a": {0, 0}, "b": {0, 0}})
	proxy.Access(OpRead, "a", nil)
	proxy.Access(OpRead, "b", nil)
	proxy.Access(OpRead, "a", nil)
	if got := proxy.CounterKeys(); got != 2 {
		t.Errorf("CounterKeys = %d, want 2", got)
	}
}

func TestLBLRequestSizeFormula(t *testing.T) {
	// §5.3.2: communication is 2^y·E_len·(ℓ/y) plus fixed framing;
	// the config's accounting must match what Access actually sends.
	for _, mode := range allLBLModes() {
		for _, size := range []int{1, 4, 16, 160} {
			cfg := LBLConfig{ValueSize: size, Mode: mode}
			wantTable := cfg.Groups() * mode.entries() * mode.entryLen()
			if got := cfg.RequestBytesPerAccess(); got < wantTable {
				t.Errorf("%v/%dB: RequestBytesPerAccess %d < table %d", mode, size, got, wantTable)
			}
		}
	}
}

func TestGroupBitsRoundTrip(t *testing.T) {
	for _, y := range []int{1, 2} {
		value := []byte{0b10110010, 0b01011101}
		out := make([]byte, len(value))
		for g := 0; g < len(value)*8/y; g++ {
			setGroupBits(out, g, y, groupBits(value, g, y))
		}
		if !bytes.Equal(out, value) {
			t.Errorf("y=%d: roundtrip %08b -> %08b", y, value, out)
		}
	}
}

// --- TEE-ORTOA ---

func newTEE(t *testing.T, valueSize int) (*rig, *TEEClient, *TEEServer) {
	t.Helper()
	r := newRig(t)
	srv, err := NewTEEServer(r.store, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(r.server)
	client, err := NewTEEClient(TEEConfig{ValueSize: valueSize}, prf.NewRandom(), secretbox.NewRandomKey(), r.client)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AttestAndProvision(srv.Enclave()); err != nil {
		t.Fatal(err)
	}
	return r, client, srv
}

func TestTEEReadWrite(t *testing.T) {
	r, client, _ := newTEE(t, 8)
	loadData(t, r, client, map[string][]byte{"k": {1, 2, 3, 4, 5, 6, 7, 8}})
	got, _, err := client.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("read = %v", got)
	}
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	if _, _, err := client.Access(OpWrite, "k", want); err != nil {
		t.Fatal(err)
	}
	got, _, err = client.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read after write = %v, want %v", got, want)
	}
}

func TestTEEServerStateChangesOnRead(t *testing.T) {
	r, client, _ := newTEE(t, 4)
	loadData(t, r, client, map[string][]byte{"k": {1, 1, 1, 1}})
	ek := keyOf(t, r.store)
	before, _ := r.store.Get(ek)
	client.Access(OpRead, "k", nil)
	after, _ := r.store.Get(ek)
	if bytes.Equal(before, after) {
		t.Error("TEE record unchanged after read")
	}
	if len(before) != len(after) {
		t.Error("TEE record length changed")
	}
}

func TestTEEUnprovisionedEnclaveFails(t *testing.T) {
	r := newRig(t)
	srv, err := NewTEEServer(r.store, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(r.server)
	client, err := NewTEEClient(TEEConfig{ValueSize: 4}, prf.NewRandom(), secretbox.NewRandomKey(), r.client)
	if err != nil {
		t.Fatal(err)
	}
	loadData(t, r, client, map[string][]byte{"k": {1, 2, 3, 4}})
	if _, _, err := client.Access(OpRead, "k", nil); err == nil {
		t.Error("access succeeded without enclave provisioning")
	}
}

func TestTEEEcallCount(t *testing.T) {
	r, client, srv := newTEE(t, 4)
	loadData(t, r, client, map[string][]byte{"k": {0, 0, 0, 0}})
	for i := 0; i < 7; i++ {
		client.Access(OpRead, "k", nil)
	}
	if got := srv.Enclave().ECalls(); got != 7 {
		t.Errorf("ECalls = %d, want 7", got)
	}
}

func TestTEERequestSizesEqualForReadAndWrite(t *testing.T) {
	// Read and write requests must be byte-for-byte the same length.
	r, client, _ := newTEE(t, 16)
	loadData(t, r, client, map[string][]byte{"k": bytes.Repeat([]byte{1}, 16)})
	_, readStats, err := client.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, writeStats, err := client.Access(OpWrite, "k", bytes.Repeat([]byte{2}, 16))
	if err != nil {
		t.Fatal(err)
	}
	if readStats.PrepBytes != writeStats.PrepBytes {
		t.Errorf("request sizes differ: read %d, write %d", readStats.PrepBytes, writeStats.PrepBytes)
	}
	if readStats.RespBytes != writeStats.RespBytes {
		t.Errorf("response sizes differ: read %d, write %d", readStats.RespBytes, writeStats.RespBytes)
	}
}

// --- FHE-ORTOA ---

func fheTestConfig(t *testing.T) FHEConfig {
	t.Helper()
	params, err := fhe.NewParameters(64, 220)
	if err != nil {
		t.Fatal(err)
	}
	return FHEConfig{Params: params, ValueSize: 8}
}

func newFHE(t *testing.T) (*rig, *FHEClient) {
	t.Helper()
	r := newRig(t)
	cfg := fheTestConfig(t)
	NewFHEServer(r.store, cfg).Register(r.server)
	client, err := NewFHEClient(cfg, prf.NewRandom(), r.client)
	if err != nil {
		t.Fatal(err)
	}
	return r, client
}

func TestFHEReadWrite(t *testing.T) {
	r, client := newFHE(t)
	loadData(t, r, client, map[string][]byte{"k": {1, 2, 3, 4, 5, 6, 7, 8}})
	got, _, err := client.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("read = %v", got)
	}
	want := []byte{9, 9, 9, 9, 8, 8, 8, 8}
	if _, _, err := client.Access(OpWrite, "k", want); err != nil {
		t.Fatal(err)
	}
	got, _, err = client.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read after write = %v, want %v", got, want)
	}
}

func TestFHENoiseEventuallyFails(t *testing.T) {
	// §3.3: repeated accesses to one object exhaust the noise budget
	// (or hit the degree cap) within a small number of accesses.
	r, client := newFHE(t)
	loadData(t, r, client, map[string][]byte{"k": {1, 2, 3, 4, 5, 6, 7, 8}})
	failedAt := -1
	for i := 0; i < 30; i++ {
		got, _, err := client.Access(OpRead, "k", nil)
		if err != nil || !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
			failedAt = i + 1
			break
		}
	}
	if failedAt < 0 {
		t.Fatal("30 FHE accesses all decrypted correctly; expected noise failure (§3.3)")
	}
	if failedAt < 2 {
		t.Errorf("failed at access %d; expected at least a couple of successes first", failedAt)
	}
	t.Logf("FHE-ORTOA degraded at access %d (paper: ~10 with SEAL defaults)", failedAt)
}

func TestFHENoiseBudgetDecreases(t *testing.T) {
	r, client := newFHE(t)
	loadData(t, r, client, map[string][]byte{"k": {1, 2, 3, 4, 5, 6, 7, 8}})
	ek := keyOf(t, r.store)
	rec, _ := r.store.Get(ek)
	before, err := client.NoiseBudgetOf(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Access(OpRead, "k", nil); err != nil {
		t.Fatal(err)
	}
	rec, _ = r.store.Get(ek)
	after, err := client.NoiseBudgetOf(rec)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("noise budget did not decrease: %d -> %d bits", before, after)
	}
	t.Logf("noise budget: %d -> %d bits after one access", before, after)
}

func TestFHEValueSizeValidation(t *testing.T) {
	params, err := fhe.NewParameters(64, 110)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFHEClient(FHEConfig{Params: params, ValueSize: 1 << 20}, prf.NewRandom(), nil); err == nil {
		t.Error("accepted value size beyond plaintext capacity")
	}
}

// --- 2RTT baseline ---

func newBaseline(t *testing.T, valueSize int) (*rig, *BaselineProxy) {
	t.Helper()
	r := newRig(t)
	NewBaselineServer(r.store).Register(r.server)
	proxy, err := NewBaselineProxy(BaselineConfig{ValueSize: valueSize}, prf.NewRandom(), secretbox.NewRandomKey(), r.client)
	if err != nil {
		t.Fatal(err)
	}
	return r, proxy
}

func TestBaselineReadWrite(t *testing.T) {
	r, proxy := newBaseline(t, 4)
	loadData(t, r, proxy, map[string][]byte{"k": {1, 2, 3, 4}})
	got, _, err := proxy.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("read = %v", got)
	}
	want := []byte{4, 3, 2, 1}
	if _, _, err := proxy.Access(OpWrite, "k", want); err != nil {
		t.Fatal(err)
	}
	got, _, _ = proxy.Access(OpRead, "k", nil)
	if !bytes.Equal(got, want) {
		t.Errorf("read after write = %v", got)
	}
}

func TestBaselineReencryptsOnRead(t *testing.T) {
	r, proxy := newBaseline(t, 4)
	loadData(t, r, proxy, map[string][]byte{"k": {5, 5, 5, 5}})
	ek := keyOf(t, r.store)
	before, _ := r.store.Get(ek)
	proxy.Access(OpRead, "k", nil)
	after, _ := r.store.Get(ek)
	if bytes.Equal(before, after) {
		t.Error("baseline record unchanged after read — reads distinguishable")
	}
}

func TestBaselineTwoRounds(t *testing.T) {
	// Every baseline access must cost exactly two RPCs.
	r, proxy := newBaseline(t, 4)
	loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
	callsBefore := r.client.Stats().Calls
	proxy.Access(OpRead, "k", nil)
	proxy.Access(OpWrite, "k", []byte{1, 1, 1, 1})
	callsAfter := r.client.Stats().Calls
	if got := callsAfter - callsBefore; got != 4 {
		t.Errorf("2 accesses made %d RPCs, want 4 (two rounds each)", got)
	}
}

func TestBaselineConcurrentSameKey(t *testing.T) {
	r, proxy := newBaseline(t, 2)
	loadData(t, r, proxy, map[string][]byte{"hot": {0, 0}})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := proxy.Access(OpWrite, "hot", []byte{byte(i), 9}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	got, _, err := proxy.Access(OpRead, "hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 9 {
		t.Errorf("final value %v is not any written value", got)
	}
}

// --- one-round property, across protocols ---

func TestSingleRoundTripProperty(t *testing.T) {
	// LBL, TEE, and FHE must serve any access in exactly one RPC; the
	// baseline takes two. This is the paper's headline claim.
	t.Run("lbl", func(t *testing.T) {
		r, proxy, _ := newLBL(t, LBLPointPermute, 4)
		loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
		before := r.client.Stats().Calls
		proxy.Access(OpRead, "k", nil)
		proxy.Access(OpWrite, "k", []byte{1, 2, 3, 4})
		if got := r.client.Stats().Calls - before; got != 2 {
			t.Errorf("2 LBL accesses made %d RPCs, want 2", got)
		}
	})
	t.Run("tee", func(t *testing.T) {
		r, client, _ := newTEE(t, 4)
		loadData(t, r, client, map[string][]byte{"k": {0, 0, 0, 0}})
		before := r.client.Stats().Calls
		client.Access(OpRead, "k", nil)
		client.Access(OpWrite, "k", []byte{1, 2, 3, 4})
		if got := r.client.Stats().Calls - before; got != 2 {
			t.Errorf("2 TEE accesses made %d RPCs, want 2", got)
		}
	})
	t.Run("fhe", func(t *testing.T) {
		r, client := newFHE(t)
		loadData(t, r, client, map[string][]byte{"k": {0, 0, 0, 0, 0, 0, 0, 0}})
		before := r.client.Stats().Calls
		client.Access(OpRead, "k", nil)
		if got := r.client.Stats().Calls - before; got != 1 {
			t.Errorf("1 FHE access made %d RPCs, want 1", got)
		}
	})
}

// --- client→proxy→server chain ---

func TestRemoteAccessorChain(t *testing.T) {
	// Full deployment: client → (RPC) → proxy → (RPC) → server.
	r, proxy, _ := newLBL(t, LBLPointPermute, 4)
	loadData(t, r, proxy, map[string][]byte{"k": {3, 1, 4, 1}})

	proxyServer := transport.NewServer()
	pl := netsim.Listen(netsim.Loopback)
	go proxyServer.Serve(pl)
	defer proxyServer.Close()
	RegisterProxyService(proxyServer, proxy)

	pc, err := transport.Dial(pl.Dial, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	remote := NewRemoteAccessor(pc)

	got, _, err := remote.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{3, 1, 4, 1}) {
		t.Errorf("remote read = %v", got)
	}
	want := []byte{2, 7, 1, 8}
	if _, _, err := remote.Access(OpWrite, "k", want); err != nil {
		t.Fatal(err)
	}
	got, _, err = remote.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("remote read after write = %v", got)
	}
}

// --- model-based property test ---

// TestLBLMatchesModel runs a random operation sequence against
// LBL-ORTOA and a plain in-memory map and checks they agree.
func TestLBLMatchesModel(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			const valueSize = 3
			r, proxy, _ := newLBL(t, mode, valueSize)
			model := map[string][]byte{
				"a": {1, 0, 0}, "b": {2, 0, 0}, "c": {3, 0, 0},
			}
			loadData(t, r, proxy, model)
			rng := rand.New(rand.NewPCG(42, uint64(mode)))
			keys := []string{"a", "b", "c"}
			for i := 0; i < 100; i++ {
				key := keys[rng.IntN(len(keys))]
				if rng.IntN(2) == 0 {
					got, _, err := proxy.Access(OpRead, key, nil)
					if err != nil {
						t.Fatalf("op %d read %s: %v", i, key, err)
					}
					if !bytes.Equal(got, model[key]) {
						t.Fatalf("op %d: read %s = %v, model %v", i, key, got, model[key])
					}
				} else {
					v := []byte{byte(rng.IntN(256)), byte(rng.IntN(256)), byte(rng.IntN(256))}
					if _, _, err := proxy.Access(OpWrite, key, v); err != nil {
						t.Fatalf("op %d write %s: %v", i, key, err)
					}
					model[key] = v
				}
			}
		})
	}
}

func TestPadValue(t *testing.T) {
	got, err := PadValue([]byte{1, 2}, 4)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 0, 0}) {
		t.Errorf("PadValue = %v, %v", got, err)
	}
	if _, err := PadValue([]byte{1, 2, 3}, 2); err == nil {
		t.Error("PadValue accepted oversize input")
	}
	same := []byte{9, 9}
	got, _ = PadValue(same, 2)
	if &got[0] != &same[0] {
		t.Error("PadValue copied an already-sized value")
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Error("Op.String broken")
	}
}

// TestBulkLoadCutsFramesByBytes: 1,024 records of a 4 KiB value's LBL
// encoding do not fit one frame, so BulkLoad must cut by bytes as well
// as by count — while small records keep the 1,024-record framing.
func TestBulkLoadCutsFramesByBytes(t *testing.T) {
	r := newRig(t)
	var frames, records, largest int
	r.server.Handle(MsgLoad, func(_ context.Context, payload []byte) ([]byte, error) {
		rd := wire.NewReader(payload)
		n := int(rd.Uvarint())
		for i := 0; i < n; i++ {
			rd.BytesPfx()
			rd.BytesPfx()
		}
		frames, records, largest = frames+1, records+n, max(largest, len(payload))
		return nil, rd.Finish()
	})
	for _, tc := range []struct {
		valueSize, frames int // frames 0: as many as the byte budget demands
	}{{160, 2}, {4 << 10, 0}} {
		proxy, err := NewLBLProxy(LBLConfig{ValueSize: tc.valueSize, Mode: LBLPointPermute}, prf.NewRandom(), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, rec, err := proxy.BuildRecord("k", make([]byte, tc.valueSize))
		if err != nil {
			t.Fatal(err)
		}
		// One encoded record stands in for all 2,000: framing depends on
		// sizes only.
		kvs := make([]KV, 2000)
		for i := range kvs {
			kvs[i] = KV{Key: fmt.Sprintf("%016d", i), Record: rec}
		}
		frames, records, largest = 0, 0, 0
		if err := BulkLoad(r.client, kvs); err != nil {
			t.Fatalf("loading 2000 × %d B values: %v", tc.valueSize, err)
		}
		want := tc.frames
		if want == 0 {
			perFrame := bulkLoadBytes / (len(rec) + 16 + 2*binary.MaxVarintLen32)
			want = (len(kvs) + perFrame - 1) / perFrame
		}
		if records != len(kvs) || frames != want || largest > bulkLoadBytes {
			t.Errorf("%d B values: %d records in %d frames (largest %d B), want %d records in %d frames of at most %d B",
				tc.valueSize, records, frames, largest, len(kvs), want, bulkLoadBytes)
		}
	}
}
