package core

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

// The table build carries the label schedule it derives to recovery
// (tableSpec.news). These tests hold that carried schedule to the
// definition it replaced — re-deriving every candidate label from the
// PRF — and pin what carrying it is for: recovery derives nothing.

// recoverFromPRF is the reference recovery: the §5.4 check against
// labels derived afresh at counter ctNew, as the proxy did before the
// schedule was carried. Kept here only, for the parity test.
func recoverFromPRF(p *LBLProxy, op Op, key string, newValue []byte, ctNew uint64, resp []byte) ([]byte, error) {
	cfg := p.cfg
	if len(resp) != cfg.Groups()*prf.Size {
		return nil, fmt.Errorf("%w: response has %d bytes, want %d", ErrTampered, len(resp), cfg.Groups()*prf.Size)
	}
	gen := p.prf.LabelGen(key)
	value := make([]byte, cfg.ValueSize)
	for g := 0; g < cfg.Groups(); g++ {
		got := prf.Output(resp[g*prf.Size:])
		matched := false
		for b := 0; b < cfg.Mode.entries() && !matched; b++ {
			if matched = got.Equal(gen.Label(g, uint8(b), ctNew)); matched {
				setGroupBits(value, g, cfg.Mode.Y(), uint8(b))
			}
		}
		if !matched {
			return nil, fmt.Errorf("%w: group %d label unrecognized", ErrTampered, g)
		}
	}
	if op == OpWrite {
		for i := range value {
			if value[i] != newValue[i] {
				return nil, fmt.Errorf("%w: write-back mismatch at byte %d", ErrTampered, i)
			}
		}
	}
	return value, nil
}

// serveSpec builds spec's request frame by frame as exchange does,
// applies it to a server holding record, and returns the response
// labels.
func serveSpec(t testing.TB, p *LBLProxy, spec tableSpec, ek string, record []byte) []byte {
	t.Helper()
	store := kvstore.New()
	if err := store.Put(ek, bytes.Clone(record)); err != nil {
		t.Fatal(err)
	}
	frames, _ := builtFrames(t, p, []tableSpec{spec})
	if len(frames) != p.cfg.RequestFrames(1) {
		t.Fatalf("built %d frames, want %d", len(frames), p.cfg.RequestFrames(1))
	}
	var next func() ([]byte, bool, error)
	if len(frames) > 1 {
		i := 0
		next = func() ([]byte, bool, error) {
			i++
			return frames[i], i < len(frames)-1, nil
		}
	}
	resp, err := NewLBLServer(store).access(context.Background(), frames[0], next)
	if err != nil {
		t.Fatal(err)
	}
	if err := slotError(resp[0]); err != nil {
		t.Fatal(err)
	}
	return resp[1:]
}

// TestCarriedScheduleParity: over every mode, value sizes from one
// byte to 4 KiB, and requests sent whole and cut into frames, recovery
// from the carried schedule must agree with re-derivation from the PRF
// — the same value, or the same ErrTampered text — on an honest
// response, on one with a label flipped at a random group, and on a
// write whose installed labels disagree with the value written.
func TestCarriedScheduleParity(t *testing.T) {
	rnd := rand.New(rand.NewPCG(16, 1))
	randomValue := func(n int) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(rnd.Uint32())
		}
		return v
	}
	same := func(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: carried schedule: %v, PRF reference: %v", what, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: carried schedule recovered %x, PRF reference %x", what, got, want)
		}
	}
	for _, mode := range allLBLModes() {
		for _, size := range []int{1, 160, 4096} {
			for _, frames := range []int{1, 5} {
				t.Run(fmt.Sprintf("%v/%dB/%dframes", mode, size, frames), func(t *testing.T) {
					cfg := LBLConfig{ValueSize: size, Mode: mode}
					if frames > 1 {
						cfg = streamCfg(mode, size, frames)
					}
					p, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
					if err != nil {
						t.Fatal(err)
					}
					stored, written := randomValue(size), randomValue(size)
					ek, rec, err := p.BuildRecord("obj", stored)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 3} {
						read := p.spec(OpRead, "obj", nil, 0)
						resp := serveSpec(t, p, read, ek, rec)
						got, gotErr := p.recoverWorkers(OpRead, nil, read.news, resp, workers)
						want, wantErr := recoverFromPRF(p, OpRead, "obj", nil, 1, resp)
						same(t, "read", got, gotErr, want, wantErr)
						if !bytes.Equal(got, stored) {
							t.Fatalf("read recovered %x, want the stored %x", got, stored)
						}

						flipped := bytes.Clone(resp)
						flipped[rnd.IntN(cfg.Groups())*prf.Size+rnd.IntN(prf.Size)] ^= 1 << rnd.IntN(8)
						got, gotErr = p.recoverWorkers(OpRead, nil, read.news, flipped, workers)
						want, wantErr = recoverFromPRF(p, OpRead, "obj", nil, 1, flipped)
						same(t, "flipped label", got, gotErr, want, wantErr)
						if gotErr == nil {
							t.Fatal("a flipped label was accepted")
						}

						write := p.spec(OpWrite, "obj", written, 0)
						resp = serveSpec(t, p, write, ek, rec)
						got, gotErr = p.recoverWorkers(OpWrite, written, write.news, resp, workers)
						want, wantErr = recoverFromPRF(p, OpWrite, "obj", written, 1, resp)
						same(t, "write", got, gotErr, want, wantErr)
						if !bytes.Equal(got, written) {
							t.Fatalf("write echoed %x, want %x", got, written)
						}

						// The server installed labels for written; a proxy that
						// meant another value must notice.
						other := bytes.Clone(written)
						other[rnd.IntN(size)] ^= 1 << rnd.IntN(8)
						got, gotErr = p.recoverWorkers(OpWrite, other, write.news, resp, workers)
						want, wantErr = recoverFromPRF(p, OpWrite, "obj", other, 1, resp)
						same(t, "write-back mismatch", got, gotErr, want, wantErr)
						if gotErr == nil {
							t.Fatal("a write-back mismatch was accepted")
						}
					}
				})
			}
		}
	}
}

// TestRecoveryAllocatesOnlyTheValue: with the schedule carried,
// recovering a 160 B response derives nothing — no label generator, no
// key schedule — and allocates the returned value alone.
func TestRecoveryAllocatesOnlyTheValue(t *testing.T) {
	cfg := LBLConfig{ValueSize: 160, Mode: LBLPointPermute}
	p, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ek, rec, err := p.BuildRecord("obj", make([]byte, cfg.ValueSize))
	if err != nil {
		t.Fatal(err)
	}
	spec := p.spec(OpRead, "obj", nil, 0)
	resp := serveSpec(t, p, spec, ek, rec)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.recoverWorkers(OpRead, nil, spec.news, resp, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("recovery allocates %v times per response, want 1 (the value)", allocs)
	}
}

// TestScheduleBuffersReturned: every round gives its schedule buffer
// back, however it ends — concurrent rounds that succeed, a round that
// fails ambiguously, and the stale round and retry that settle it.
func TestScheduleBuffersReturned(t *testing.T) {
	cfg := streamCfg(LBLPointPermute, 8, 4)
	plan := &netsim.FaultPlan{BlackholeProb: 1, MaxFaults: 1}
	r, proxy := newFaultStreamRig(t, cfg, plan)
	data := map[string][]byte{}
	for i := 0; i < 8; i++ {
		data[fmt.Sprintf("key-%02d", i)] = make([]byte, 8)
	}
	loadData(t, r, proxy, data)
	held := func(when string) {
		t.Helper()
		proxy.schedules.mu.Lock()
		n := proxy.schedules.out
		proxy.schedules.mu.Unlock()
		if n != 0 {
			t.Fatalf("%s: %d schedule buffers not returned", when, n)
		}
	}

	var wg sync.WaitGroup
	for k := range data {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, _, err := proxy.Access(OpRead, k, nil); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if _, _, err := proxy.AccessBatch([]BatchOp{{Op: OpRead, Key: "key-00"}, {Op: OpRead, Key: "key-01"}, {Op: OpRead, Key: "never-loaded"}}); err == nil {
		t.Fatal("batch with an unloaded key succeeded")
	}
	held("after concurrent rounds and a partly failed batch")

	plan.SetActive(true)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	_, _, err := proxy.AccessContext(ctx, OpWrite, "key-00", bytes.Repeat([]byte{0xAB}, 8))
	cancel()
	if !transport.Ambiguous(err) {
		t.Fatalf("blackholed write: %v, want an ambiguous failure", err)
	}
	plan.SetActive(false)
	held("after an ambiguous round")

	if _, _, err := proxy.Access(OpRead, "key-00", nil); err != nil {
		t.Fatalf("read after the ambiguous round: %v", err)
	}
	held("after the rebase settled the ambiguous round")
}

// TestStoredRecordGolden pins the stored record — the mode byte with the
// record format in its high bits, labels, then decryption bits — under
// record format 1: the record BuildRecord writes at counter 0, and the
// one three accesses leave at counter 3. Both were checked against an
// independent AES/HMAC implementation of the keystream layout
// (prf.LabelGen). Format 1 re-pinned this test because the layout moved
// every label, so records written earlier no longer open
// (TestOldRecordFormatIsDefinite). If this test fails, the change at
// hand has moved the label schedule or the record layout, and existing
// deployments' data with it: bump recordFormat, and re-pin.
func TestStoredRecordGolden(t *testing.T) {
	const (
		encKey   = "6fdf74f44de6d9dccb9052036d363aeb"
		counter0 = "12d0d8f4d0dfa1773b02f5d27eebc9fa2c11a24d9e2d92cd9d3db70abbcd3194aa231242c475fec65a3681dcf07279f4" +
			"d84f3167d39947036341e411736c7f8f0ee1363d24ceb5d8a2bd1dac16f2da665f5a5d283d0dc00e7afd4daf2387c91b" +
			"c487564597b42197739088425291df8da37624f55aab05d4f8ac421333af7d10950001000101020000"
		counter3 = "1219b58e7c54d70319eaa532bc4d69ac0e8a5caeb84c57264d3ef5f583eaadffe5aa38e5c8ea56964bee5873814b0c27" +
			"1d545ea6b0e5c7a6f37f59346dca0ff47baedc6ffe4211739c1d49236769158bcf100541ffb51670098aa70388ec3254" +
			"5451c941eb9ccde118f4d15d4f7ed833b30b8e3b413c2c7eee428b2c7074071ee90300030103000300"
	)
	key := make([]byte, prf.KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	f, err := prf.New(key)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t)
	NewLBLServer(r.store).Register(r.server)
	proxy, err := NewLBLProxy(LBLConfig{ValueSize: 2, Mode: LBLPointPermute}, f, r.client)
	if err != nil {
		t.Fatal(err)
	}
	ek, rec, err := proxy.BuildRecord("golden-key", []byte{0xC3, 0x5A})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString([]byte(ek)); got != encKey {
		t.Errorf("encoded key = %s, want %s", got, encKey)
	}
	if got := hex.EncodeToString(rec); got != counter0 {
		t.Errorf("record at counter 0 = %s, want %s", got, counter0)
	}
	if err := r.store.Put(ek, rec); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, proxy, "golden-key", []byte{0x0F, 0xF0})
	if _, _, err := proxy.Access(OpRead, "golden-key", nil); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, proxy, "golden-key", []byte{0x96, 0x69})
	if got := hex.EncodeToString(serverRecord(t, r, proxy, "golden-key")); got != counter3 {
		t.Errorf("record at counter 3 = %s, want %s", got, counter3)
	}
}
