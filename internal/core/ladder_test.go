package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// The recovery ladder (fence → claim, stale → rebase) belongs to the
// round, so every way of reaching a round gets it per key: these tests
// reach it through held chains and through AccessBatch, where a fenced
// or desynchronized key used to surface its rejection.

// TestHeldRoundAdoptsFencedRange: concurrent sessions, three to a key so
// that some are held and leave as chains, on an AutoAdopt proxy whose
// ranges a peer has claimed: their rounds must claim the ranges back and
// complete every session's access.
func TestHeldRoundAdoptsFencedRange(t *testing.T) {
	const n = 4
	r, peers, _ := newLBLPeers(t, 2, LBLConfig{ValueSize: 4, Mode: LBLPointPermute, AutoAdopt: true})
	a, b := peers[0], peers[1]
	data := map[string][]byte{}
	for i := 0; i < n; i++ {
		data[fmt.Sprintf("key-%02d", i)] = []byte{byte(i), 0, 0, 0}
	}
	loadData(t, r, a, data)
	for k := range data {
		if _, err := b.ClaimRange(RangeOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < 3*n; s++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := a.Access(OpRead, fmt.Sprintf("key-%02d", i), nil)
			if err != nil {
				t.Errorf("session on key %d surfaced %v instead of adopting the fenced range", i, err)
			} else if v[0] != byte(i) {
				t.Errorf("session on key %d read %v", i, v)
			}
		}(s % n)
	}
	wg.Wait()
}

// TestBatchRebasesDesyncedKey: one key of a batch is desynchronized by
// two counters. Behind the server's record, the round rebases that key
// and answers it; ahead of it — a rolled-back server — the key fails
// errRolledBack once and the same batch then succeeds. Either way its
// batch mates are answered by the first lap and never fail. The chain
// rows access the desynchronized key three times in the batch: the stale
// chain costs one rebase, on its head, and its members re-key from the
// rebased counter.
func TestBatchRebasesDesyncedKey(t *testing.T) {
	single := []BatchOp{{Op: OpRead, Key: "a"}, {Op: OpRead, Key: "b"}, {Op: OpRead, Key: "c"}}
	chain := []BatchOp{{Op: OpRead, Key: "a"}, {Op: OpRead, Key: "b"}, {Op: OpWrite, Key: "b", Value: []byte{9, 9, 9, 9}}, {Op: OpRead, Key: "b"}, {Op: OpRead, Key: "c"}}
	for _, tc := range []struct {
		name       string
		rolledBack bool
		ops        []BatchOp
		want       [][]byte
	}{
		{"behind/single", false, single, [][]byte{{1, 1, 1, 1}, {8, 8, 8, 8}, {3, 3, 3, 3}}},
		{"behind/chain", false, chain, [][]byte{{1, 1, 1, 1}, {8, 8, 8, 8}, {9, 9, 9, 9}, {9, 9, 9, 9}, {3, 3, 3, 3}}},
		{"ahead/single", true, single, [][]byte{{1, 1, 1, 1}, {2, 2, 2, 2}, {3, 3, 3, 3}}},
		{"ahead/chain", true, chain, [][]byte{{1, 1, 1, 1}, {2, 2, 2, 2}, {9, 9, 9, 9}, {9, 9, 9, 9}, {3, 3, 3, 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, proxy := newLBLReconcile(t, LBLPointPermute, prf.NewRandom())
			reg := obs.NewRegistry()
			proxy.Instrument(reg)
			loadData(t, r, proxy, map[string][]byte{"a": {1, 1, 1, 1}, "b": {2, 2, 2, 2}, "c": {3, 3, 3, 3}})
			old := serverRecord(t, r, proxy, "b")
			mustWrite(t, proxy, "b", []byte{7, 7, 7, 7})
			mustWrite(t, proxy, "b", []byte{8, 8, 8, 8})
			if tc.rolledBack {
				regressServer(t, r, proxy, "b", old) // the server back at counter 0, the proxy at 2
			} else {
				e := proxy.counters.acquire("b") // the proxy back at 0, the server at 2
				e.ct = 0
				proxy.counters.release(e)
			}

			if tc.rolledBack {
				results, _ := proxy.AccessBatchResults(context.Background(), tc.ops)
				for i, res := range results {
					if key := tc.ops[i].Key; key == "b" && !errors.Is(res.Err, errRolledBack) || key != "b" && res.Err != nil {
						t.Errorf("first batch, op %d on %q: %v", i, key, res.Err)
					}
				}
			}
			values, _, err := proxy.AccessBatch(tc.ops)
			if err != nil {
				t.Fatalf("batch with one desynced key: %v", err)
			}
			for i, want := range tc.want {
				if !bytes.Equal(values[i], want) {
					t.Errorf("value %d = %v, want %v", i, values[i], want)
				}
			}
			rebased, behind := reg.Value("ortoa_lbl_reconciled_keys_total"), reg.Value("ortoa_lbl_rolled_back_keys_total")
			if want := map[bool][2]int64{false: {1, 0}, true: {0, 1}}[tc.rolledBack]; rebased != want[0] || behind != want[1] {
				t.Errorf("%d rebased and %d behind, want %d and %d for the one desynchronized key", rebased, behind, want[0], want[1])
			}
		})
	}
}

// TestLadderLapsBounded: a peer that re-claims the range every time
// this proxy claims it keeps every retry fenced. The round must give up
// after recoveryAllowance claims and surface the fence — for that key
// only, and once per chain however many of the round's accesses name
// the key.
func TestLadderLapsBounded(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("chain=%d", k), func(t *testing.T) {
			r, peers, _ := newLBLPeers(t, 2, LBLConfig{ValueSize: 4, Mode: LBLPointPermute, AutoAdopt: true})
			a, b := peers[0], peers[1]
			contested, calm := "key-00", "key-01"
			for RangeOf(calm) == RangeOf(contested) {
				calm += "x"
			}
			loadData(t, r, a, map[string][]byte{contested: {1, 1, 1, 1}, calm: {2, 2, 2, 2}})
			if _, err := b.ClaimRange(RangeOf(contested)); err != nil {
				t.Fatal(err)
			}
			var claims atomic.Int64
			var reclaiming atomic.Bool
			r.server.SetObserver(func(msgType byte, _, _ int) {
				// Every claim a makes is answered — before a hears back — by b
				// taking the range again. b's own claim passes through here too,
				// nested inside a's, and is let through.
				if msgType == MsgEpochClaim && reclaiming.CompareAndSwap(false, true) {
					claims.Add(1)
					b.ClaimRange(RangeOf(contested)) //nolint:errcheck
					reclaiming.Store(false)
				}
			})
			ops := []BatchOp{{Op: OpRead, Key: calm}}
			for i := 0; i < k; i++ {
				ops = append(ops, BatchOp{Op: OpRead, Key: contested})
			}
			results, _ := a.AccessBatchResults(context.Background(), ops)
			if results[0].Err != nil || !bytes.Equal(results[0].Value, []byte{2, 2, 2, 2}) {
				t.Errorf("calm key: %v, %v", results[0].Value, results[0].Err)
			}
			for i := 1; i <= k; i++ {
				if !isFencedRound(results[i].Err) {
					t.Errorf("contested access %d: %v, want the fence to surface once the allowance is spent", i, results[i].Err)
				}
			}
			if got := claims.Load(); got != recoveryAllowance {
				t.Errorf("proxy claimed the range %d times, want recoveryAllowance = %d", got, recoveryAllowance)
			}
		})
	}
}

// TestEntryFormatMismatchIsDefinite: a request stamped with another
// exchange version — v1, as a proxy older than the stamp wrote it, or v2,
// whose requests are byte for byte this release's but which reads a
// label block where this release answers with fields and a digest —
// comes from a different release. Answered, a v2 proxy would call the
// slot tampering; a v1 table left to trial decryption would be answered
// slotStale and send the proxy up the ladder to report a
// desynchronization that is not there. Instead it is refused at the
// header: one request, a constant text, no rebase, the record untouched.
func TestEntryFormatMismatchIsDefinite(t *testing.T) {
	for _, format := range []byte{1, 2} {
		t.Run(fmt.Sprintf("v%d", format), func(t *testing.T) {
			r, proxy := newLBLReconcile(t, LBLPointPermute, prf.NewRandom())
			proxy.Instrument(obs.NewRegistry())
			loadData(t, r, proxy, map[string][]byte{"k": {1, 2, 3, 4}})
			before := serverRecord(t, r, proxy, "k")

			srv := NewLBLServer(r.store)
			var requests atomic.Int64
			r.server.Handle(MsgLBLAccess, func(ctx context.Context, payload []byte) ([]byte, error) {
				requests.Add(1)
				other := bytes.Clone(payload)
				at := prf.Size + lblClaimLen
				other[at] &= 1<<modeBits - 1
				if format > 1 { // v1 proxies wrote no stamp
					other[at] |= format << modeBits
				}
				return srv.handleAccess(ctx, other)
			})

			_, _, err := proxy.Access(OpRead, "k", nil)
			var remote *transport.RemoteError
			if !errors.As(err, &remote) || !strings.Contains(remote.Msg, errEntryFormat.Error()) {
				t.Fatalf("v%d-stamped request: %v, want the entry-format rejection", format, err)
			}
			if transport.Ambiguous(err) || isStaleRound(err) {
				t.Errorf("rejection %v reads as ambiguous or stale", err)
			}
			if n := requests.Load(); n != 1 {
				t.Errorf("server saw %d requests, want 1: the rejection must not be retried", n)
			}
			if rebased, behind := proxy.mx.reconciledKeys.Value(), proxy.mx.rolledBackKeys.Value(); rebased != 0 || behind != 0 {
				t.Errorf("proxy rebased %d keys and found %d behind, want 0 and 0", rebased, behind)
			}
			entry := proxy.counters.acquire("k")
			if entry.ct != 0 {
				t.Errorf("counter entry after the rejection: ct %d, want 0", entry.ct)
			}
			proxy.counters.release(entry)
			if after := serverRecord(t, r, proxy, "k"); !bytes.Equal(after, before) {
				t.Error("the rejected request changed the record")
			}
		})
	}
}

// TestSegHeaderRefused: a segment header naming what the mode table does
// not hold — a mode with no row, a group count that is not whole bytes of
// value or is out of range, an entry length of another mode, another
// exchange version — rejects the request at the header, before any
// record is read: the request is answered with an error, not slots, no
// entry is trial-decrypted and the record is untouched.
func TestSegHeaderRefused(t *testing.T) {
	cfg := LBLConfig{ValueSize: 4, Mode: LBLPointPermute}
	p, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ek, rec, err := p.BuildRecord("k", []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	req, err := p.buildRequest(OpRead, "k", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each payload keeps the request's key, claim and table and rewrites
	// the header from the mode byte on, so one that passed the header
	// would open the stored record.
	at := prf.Size + lblClaimLen
	payload := func(mode byte, groups, entryLen uint64) []byte {
		b := append(bytes.Clone(req[:at]), mode)
		b = binary.AppendUvarint(b, groups)
		b = binary.AppendUvarint(b, entryLen)
		return append(b, req[cfg.segHeaderLen():]...)
	}
	v3 := byte(entryFormat << modeBits)
	pp := v3 | byte(LBLPointPermute)
	if _, _, got, err := readSegHeader(wire.NewReader(payload(pp, 16, 25))); err != nil || got != cfg {
		t.Fatalf("the request's own header reads as %+v, %v; want %+v", got, err, cfg)
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"mode 3", payload(v3|3, 16, 25)},
		{"mode 4", payload(v3|4, 16, 24)},
		{"mode 15", payload(v3|15, 16, 25)},
		{"y = 2 groups not whole bytes", payload(pp, 15, 25)},
		{"y = 1 groups not whole bytes", payload(v3|byte(LBLBasic), 12, 24)},
		{"0 groups", payload(pp, 0, 25)},
		{"more than 2^22 groups", payload(pp, maxGroups+4, 25)},
		{"entry length of another mode", payload(pp, 16, 24)},
		{"entry format 2", payload(2<<modeBits|byte(LBLPointPermute), 16, 25)},
		{"entry format 4", payload(4<<modeBits|byte(LBLPointPermute), 16, 25)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, _, _, err := readSegHeader(wire.NewReader(c.payload)); err == nil {
				t.Fatal("the header was accepted")
			}
			store := specStore(t, ek, rec)
			srv := NewLBLServer(store)
			if resp, err := srv.access(context.Background(), c.payload, nil); err == nil {
				t.Fatalf("the request was answered with %d bytes of slots, want a rejection", len(resp))
			}
			if srv.Ops() != 0 || srv.DecryptAttempts() != 0 {
				t.Errorf("%d accesses served, %d trial decryptions; want 0 and 0", srv.Ops(), srv.DecryptAttempts())
			}
			if now, _ := store.Get(ek); !bytes.Equal(now, rec) {
				t.Error("the refused request changed the record")
			}
		})
	}
}

// TestOldRecordFormatIsDefinite: a record the release before recordFormat
// wrote — the counter-0 record of the per-block label layout, its mode
// byte carrying no format — is refused before trial decryption with the
// constant record-format text: one request, no rebase, the record
// untouched. Trial decryption would have answered slotStale, and the
// ladder would have searched for a counter no label of this release
// can match.
func TestOldRecordFormatIsDefinite(t *testing.T) {
	key := make([]byte, prf.KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	f, err := prf.New(key)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t)
	srv := NewLBLServer(r.store)
	var requests atomic.Int64
	r.server.Handle(MsgLBLAccess, func(ctx context.Context, payload []byte) ([]byte, error) {
		requests.Add(1)
		return srv.handleAccess(ctx, payload)
	})
	proxy, err := NewLBLProxy(LBLConfig{ValueSize: 2, Mode: LBLPointPermute}, f, r.client)
	if err != nil {
		t.Fatal(err)
	}
	proxy.Instrument(obs.NewRegistry())
	// "golden-key" holding C3 5A at counter 0, as the previous release
	// stored it (TestStoredRecordGolden's counter-0 record before format 1).
	old, _ := hex.DecodeString("0230b2bc19b94174ee2dbf8415986e4bc58533cae3e78e4f942753232ec93801022b375aeca10b11b15343e9cc58a602" +
		"c2a8402267828f0e0da1f0080771a79ec3cd557ed9d9e36aaa6de39fe4baf0cac625d3b93056d7911d3233c04ae2e81c" +
		"494e9529b31dc8dda08c43bb9f073d3468c667d618d7ba50d09718089c0269e70c0001020300010102")
	regressServer(t, r, proxy, "golden-key", old)

	for _, op := range []Op{OpRead, OpWrite} {
		requests.Store(0)
		_, _, err := proxy.Access(op, "golden-key", []byte{1, 2})
		var remote *transport.RemoteError
		if !errors.As(err, &remote) || remote.Msg != errRecordFormat.Error() {
			t.Fatalf("%v against an old record: %v, want the record-format rejection", op, err)
		}
		if transport.Ambiguous(err) || isStaleRound(err) {
			t.Errorf("rejection %v reads as ambiguous or stale", err)
		}
		if n := requests.Load(); n != 1 {
			t.Errorf("%v: server saw %d requests, want 1: the rejection must not be retried", op, n)
		}
	}
	if rebased, behind := proxy.mx.reconciledKeys.Value(), proxy.mx.rolledBackKeys.Value(); rebased != 0 || behind != 0 {
		t.Errorf("proxy rebased %d keys and found %d behind, want 0 and 0", rebased, behind)
	}
	if after := serverRecord(t, r, proxy, "golden-key"); !bytes.Equal(after, old) {
		t.Error("the rejected requests changed the record")
	}
}
