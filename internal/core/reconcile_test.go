package core

import (
	"bytes"
	"context"
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

// recordAt builds the record holding value at counter ct — what ct
// accesses leave behind BuildRecord's, the last writing value.
func recordAt(p *LBLProxy, key string, value []byte, ct uint64) []byte {
	gen := p.prf.LabelGen(key)
	y, groups := p.cfg.Mode.Y(), p.cfg.Groups()
	rec := []byte{p.cfg.Mode.recordByte()}
	for g := 0; g < groups; g++ {
		l := gen.Label(g, groupBits(value, g, y), ct)
		rec = append(rec, l[:]...)
	}
	if p.cfg.Mode.hasDbits() {
		mask := uint8(p.cfg.Mode.entries() - 1)
		for g := 0; g < groups; g++ {
			rec = append(rec, groupBits(value, g, y)^gen.PermuteBits(g, ct)&mask)
		}
	}
	return rec
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
// proxy's counter — a proxy resumed from a stale counter file, an
// adopter, a lost response. The key's next access is answered stale
// with the record's labels, rebases and goes around once: two requests
// whatever the gap, up to reconcileWindow. Past it the access fails
// stale.
func TestProxyBehindHeals(t *testing.T) {
	for _, gap := range []uint64{2, 500, reconcileWindow, reconcileWindow + 1} {
		t.Run(fmt.Sprintf("gap=%d", gap), func(t *testing.T) {
			r, proxy := newLBLReconcile(t, LBLPointPermute, prf.NewRandom())
			reg := obs.NewRegistry()
			proxy.Instrument(reg)
			loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
			mustWrite(t, proxy, "k", []byte{1, 1, 1, 1})
			regressServer(t, r, proxy, "k", recordAt(proxy, "k", []byte{4, 4, 4, 4}, 1+gap))

			requests := accessRequests(r)
			got, _, err := proxy.Access(OpRead, "k", nil)
			if gap > reconcileWindow {
				if !isStaleRound(err) || requests.Load() != 1 {
					t.Fatalf("gap past the window: %v after %d requests, want one stale rejection", err, requests.Load())
				}
				return
			}
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
