package core

import (
	"bytes"
	"context"
	"crypto/aes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// newLBLReconcile builds an LBL deployment keyed with f whose server
// counts the access requests it is sent.
func newLBLReconcile(t *testing.T, mode LBLMode, f *prf.PRF) (*rig, *LBLProxy) {
	t.Helper()
	r := newRig(t)
	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	proxy, err := NewLBLProxy(LBLConfig{ValueSize: 4, Mode: mode}, f, r.client)
	if err != nil {
		t.Fatal(err)
	}
	return r, proxy
}

// accessRequests counts the access requests r's server is sent from now on.
func accessRequests(r *rig) *atomic.Int64 {
	var n atomic.Int64
	r.server.SetObserver(func(msgType byte, _, _ int) {
		if msgType == MsgLBLAccess {
			n.Add(1)
		}
	})
	return &n
}

// serverRecord reads the raw record bytes the server holds for key.
func serverRecord(t *testing.T, r *rig, p *LBLProxy, key string) []byte {
	t.Helper()
	ek := p.prf.EncodeKey(key)
	rec, err := r.store.Get(string(ek[:]))
	if err != nil {
		t.Fatalf("server record for %q: %v", key, err)
	}
	return rec
}

// regressServer overwrites the server's record for key with rec: an
// older one simulates a server that crashed under a lossy fsync policy
// and recovered older durable state, a newer one (recordAt) accesses
// this proxy never saw.
func regressServer(t *testing.T, r *rig, p *LBLProxy, key string, rec []byte) {
	t.Helper()
	ek := p.prf.EncodeKey(key)
	if err := r.store.Put(string(ek[:]), rec); err != nil {
		t.Fatal(err)
	}
}

// labelAt is the label of bit value b of group g at counter ct, derived
// afresh block by block: under point-and-permute with its colour, b XOR
// the low y bits of bit value 0's label.
func labelAt(p *LBLProxy, gen *prf.LabelGen, g int, b uint8, ct uint64) prf.Output {
	l := gen.Label(g, b, ct)
	if p.cfg.Mode.permute() {
		mask := uint8(p.cfg.Mode.entries() - 1)
		r := gen.Label(g, 0, ct)[0] & mask
		l[0] = l[0]&^mask | (b^r)&mask
	}
	return l
}

// verifierAt is key's record verifier at counter ct under p's PRF key,
// AES(VerifierKey, PRF(key)[:8] ‖ ct big-endian), computed straight from
// crypto/aes.
func verifierAt(p *LBLProxy, key string, ct uint64) []byte {
	k := p.prf.VerifierKey()
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic(err)
	}
	ek := p.prf.EncodeKey(key)
	v := binary.BigEndian.AppendUint64(bytes.Clone(ek[:8]), ct)
	block.Encrypt(v, v)
	return v
}

// recordAt builds the record holding value at counter ct — what ct
// accesses leave behind BuildRecord's, the last writing value.
func recordAt(p *LBLProxy, key string, value []byte, ct uint64) []byte {
	gen := p.prf.LabelGen(key)
	y, groups := p.cfg.Mode.Y(), p.cfg.Groups()
	rec := []byte{p.cfg.Mode.recordByte()}
	for g := 0; g < groups; g++ {
		l := labelAt(p, gen, g, groupBits(value, g, y), ct)
		rec = append(rec, l[:]...)
	}
	return append(rec, verifierAt(p, key, ct)...)
}

func mustWrite(t *testing.T, p *LBLProxy, key string, value []byte) {
	t.Helper()
	if _, _, err := p.Access(OpWrite, key, value); err != nil {
		t.Fatalf("write %q: %v", key, err)
	}
}

// TestRecordAt holds the test's record builder to the protocol's: at
// counter 0 it is BuildRecord's, and after accesses the server's.
func TestRecordAt(t *testing.T) {
	for _, mode := range allLBLModes() {
		r, proxy := newLBLReconcile(t, mode, prf.NewRandom())
		_, rec, err := proxy.BuildRecord("k", []byte{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recordAt(proxy, "k", []byte{1, 2, 3, 4}, 0), rec) {
			t.Fatalf("%v: recordAt(0) differs from BuildRecord", mode)
		}
		loadData(t, r, proxy, map[string][]byte{"k": {1, 2, 3, 4}})
		mustWrite(t, proxy, "k", []byte{5, 6, 7, 8})
		if _, _, err := proxy.Access(OpRead, "k", nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recordAt(proxy, "k", []byte{5, 6, 7, 8}, 2), serverRecord(t, r, proxy, "k")) {
			t.Fatalf("%v: recordAt(2) differs from the record two accesses left", mode)
		}
	}
}

// TestProxyBehindHeals: the server's record is gap accesses past the
// proxy's counter — a proxy resumed from a stale counter file, a peer
// taking over a dead proxy's keys, a lost response. The key's next
// access is answered stale with the record's verifier, rebases and goes
// around once: two requests whatever the gap, with no window to fall
// out of.
func TestProxyBehindHeals(t *testing.T) {
	for _, gap := range []uint64{2, 500, 4096, 4097, 100_000} {
		t.Run(fmt.Sprintf("gap=%d", gap), func(t *testing.T) {
			r, proxy := newLBLReconcile(t, LBLPointPermute, prf.NewRandom())
			reg := obs.NewRegistry()
			proxy.Instrument(reg)
			loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
			mustWrite(t, proxy, "k", []byte{1, 1, 1, 1})
			regressServer(t, r, proxy, "k", recordAt(proxy, "k", []byte{4, 4, 4, 4}, 1+gap))

			requests := accessRequests(r)
			got, _, err := proxy.Access(OpRead, "k", nil)
			if err != nil || !bytes.Equal(got, []byte{4, 4, 4, 4}) {
				t.Fatalf("read %v (%v), want the server's live value 4444", got, err)
			}
			if n := requests.Load(); n != 2 {
				t.Errorf("the read cost %d requests, want 2", n)
			}
			if n := reg.Value("ortoa_lbl_reconciled_keys_total"); n != 1 {
				t.Errorf("%d rebases, want 1", n)
			}
			mustWrite(t, proxy, "k", []byte{5, 5, 5, 5})
			if got, _, err := proxy.Access(OpRead, "k", nil); err != nil || !bytes.Equal(got, []byte{5, 5, 5, 5}) {
				t.Errorf("write/read after the rebase = %v, %v", got, err)
			}
		})
	}
}

// TestStaleVerifierRules holds the rebase to the verifier a stale slot
// carries, for a proxy whose counter for "k" is 10: its own key's
// verifier above 10 rebases and goes around, at 10 fails stale, below it
// fails errRolledBack and moves the counter down to it; another key's
// verifier, another PRF key's, random bytes and zeros fail stale and
// leave the counter where it was. No verifier moves the counter anywhere
// but to the counter it carries for this key.
func TestStaleVerifierRules(t *testing.T) {
	p, err := NewLBLProxy(LBLConfig{ValueSize: 4, Mode: LBLPointPermute}, prf.NewRandom(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := NewLBLProxy(p.cfg, prf.NewRandom(), nil)
	if err != nil {
		t.Fatal(err)
	}
	random := bytes.Repeat([]byte{0xA5, 0x3C, 0x96, 0x0F}, verifierLen/4)
	stale := slotError(slotStale)
	for _, c := range []struct {
		name   string
		held   []byte
		again  bool
		wantCt uint64
		err    error
	}{
		{"its own, above", verifierAt(p, "k", 15), true, 15, stale},
		{"its own, far above", verifierAt(p, "k", 1<<40), true, 1 << 40, stale},
		{"its own, at the counter", verifierAt(p, "k", 10), false, 10, stale},
		{"its own, below", verifierAt(p, "k", 4), false, 4, errRolledBack},
		{"another key's, above", verifierAt(p, "other", 15), false, 10, stale},
		{"another key's, below", verifierAt(p, "other", 4), false, 10, stale},
		{"another PRF key's", verifierAt(stranger, "k", 15), false, 10, stale},
		{"random bytes", random, false, 10, stale},
		{"zeros", make([]byte, verifierLen), false, 10, stale},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := p.counters.acquire("k")
			e.ct = 10
			chain := &keyChain{accs: []roundAccess{{BatchOp: BatchOp{Op: OpRead, Key: "k"}}}, entry: e, status: slotStale, err: stale}
			copy(chain.held[:], c.held)
			again := p.rebase(chain)
			ct := e.ct
			p.counters.release(e)
			if again != c.again || ct != c.wantCt || chain.err.Error() != c.err.Error() {
				t.Errorf("rebase: again %v, counter %d, err %v; want %v, %d, %v", again, ct, chain.err, c.again, c.wantCt, c.err)
			}
		})
	}
}

// TestMisplacedRecordIsDefinite: the server holds, under "k", another
// key's record — a verifier of a counter far above the proxy's, but not
// "k"'s. The access fails stale in one request; the proxy neither rebases
// nor counts a rollback, and "k"'s counter stays where it was.
func TestMisplacedRecordIsDefinite(t *testing.T) {
	r, proxy := newLBLReconcile(t, LBLPointPermute, prf.NewRandom())
	proxy.Instrument(obs.NewRegistry())
	loadData(t, r, proxy, map[string][]byte{"k": {1, 1, 1, 1}})
	mustWrite(t, proxy, "k", []byte{2, 2, 2, 2})
	regressServer(t, r, proxy, "k", recordAt(proxy, "other", []byte{3, 3, 3, 3}, 500))
	requests := accessRequests(r)
	_, _, err := proxy.Access(OpRead, "k", nil)
	if !IsStaleRound(err) || requests.Load() != 1 {
		t.Fatalf("access against another key's record: %v after %d requests, want one stale rejection", err, requests.Load())
	}
	if rebased, behind := proxy.mx.reconciledKeys.Value(), proxy.mx.rolledBackKeys.Value(); rebased != 0 || behind != 0 {
		t.Errorf("proxy rebased %d keys and found %d behind, want 0 and 0", rebased, behind)
	}
	e := proxy.counters.acquire("k")
	defer proxy.counters.release(e)
	if e.ct != 1 {
		t.Errorf("counter %d after the rejection, want 1", e.ct)
	}
}

// TestProxyBehindAfterStateLoss: a replacement proxy resumes from a
// counter file saved two writes ago and reads the live value.
func TestProxyBehindAfterStateLoss(t *testing.T) {
	f := prf.NewRandom()
	r, proxy := newLBLReconcile(t, LBLPointPermute, f)
	loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
	mustWrite(t, proxy, "k", []byte{1, 1, 1, 1})
	var snap bytes.Buffer
	if err := proxy.SaveCounters(&snap); err != nil { // counter 1
		t.Fatal(err)
	}
	mustWrite(t, proxy, "k", []byte{2, 2, 2, 2})
	mustWrite(t, proxy, "k", []byte{3, 3, 3, 3}) // the server at 3

	fresh, err := NewLBLProxy(proxy.Config(), f, r.client)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadCounters(&snap); err != nil {
		t.Fatal(err)
	}
	if got, _, err := fresh.Access(OpRead, "k", nil); err != nil || !bytes.Equal(got, []byte{3, 3, 3, 3}) {
		t.Fatalf("read after proxy state loss = %v, %v; want the live value 3333", got, err)
	}
}

// TestServerRollbackRefusedOnce: the server lost its last two rounds, so
// its record is behind the proxy's counter. The access that finds it
// fails with errRolledBack — definitely, in one request — and is
// counted; the key is rebased, so the next access reads the durable
// value and traffic flows.
func TestServerRollbackRefusedOnce(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			r, proxy := newLBLReconcile(t, mode, prf.NewRandom())
			reg := obs.NewRegistry()
			proxy.Instrument(reg)
			loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
			mustWrite(t, proxy, "k", []byte{3, 3, 3, 3})
			old := serverRecord(t, r, proxy, "k") // counter 1, value 3333
			mustWrite(t, proxy, "k", []byte{4, 4, 4, 4})
			if _, _, err := proxy.Access(OpRead, "k", nil); err != nil {
				t.Fatal(err)
			}
			regressServer(t, r, proxy, "k", old) // the proxy at 3

			requests := accessRequests(r)
			_, _, err := proxy.Access(OpRead, "k", nil)
			if !errors.Is(err, errRolledBack) || transport.Ambiguous(err) || requests.Load() != 1 {
				t.Fatalf("access after a rollback: %v after %d requests, want errRolledBack after 1", err, requests.Load())
			}
			if n := reg.Value("ortoa_lbl_rolled_back_keys_total"); n != 1 {
				t.Errorf("%d rollbacks counted, want 1", n)
			}
			got, _, err := proxy.Access(OpRead, "k", nil)
			if err != nil || !bytes.Equal(got, []byte{3, 3, 3, 3}) {
				t.Fatalf("read after the refusal = %v, %v; want the rolled-back value 3333", got, err)
			}
			mustWrite(t, proxy, "k", []byte{5, 5, 5, 5})
			if got, _, err := proxy.Access(OpRead, "k", nil); err != nil || !bytes.Equal(got, []byte{5, 5, 5, 5}) {
				t.Errorf("write/read after the rebase = %v, %v", got, err)
			}
			if n := reg.Value("ortoa_lbl_rolled_back_keys_total"); n != 1 {
				t.Errorf("%d rollbacks counted, want still 1", n)
			}
		})
	}
}

// TestReplayEvictedIsAmbiguous: the server ran a write but answered with
// the at-most-once cache's tombstone — the response a retry gets once
// the cached one was evicted. The write applied, so the access must not
// read as a definite failure: it is ambiguous, and the key's next access
// reads the written value.
func TestReplayEvictedIsAmbiguous(t *testing.T) {
	r, proxy := newLBLReconcile(t, LBLPointPermute, prf.NewRandom())
	loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
	srv := NewLBLServer(r.store)
	var evict atomic.Bool
	r.server.Handle(MsgLBLAccess, func(ctx context.Context, payload []byte) ([]byte, error) {
		resp, err := srv.handleAccess(ctx, payload)
		if evict.CompareAndSwap(true, false) {
			return nil, errors.New("at-most-once cache: request executed, cached response evicted")
		}
		return resp, err
	})
	evict.Store(true)
	if _, _, err := proxy.Access(OpWrite, "k", []byte{9, 9, 9, 9}); !transport.Ambiguous(err) {
		t.Fatalf("write answered with the tombstone: %v, want an ambiguous failure", err)
	}
	if got, _, err := proxy.Access(OpRead, "k", nil); err != nil || !bytes.Equal(got, []byte{9, 9, 9, 9}) {
		t.Errorf("read after the write = %v, %v; want 9999", got, err)
	}
}
