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

// The recovery ladder (stale → rebase) belongs to the round, so every
// way of reaching a round gets it per key: these tests reach it through
// AccessBatch, where a desynchronized key used to surface its rejection.

// TestHeldRoundRebasesPeerAdvancedKey: a peer has written every key
// once, so this proxy's counters are one behind the server's records.
// Three concurrent sessions per key reach it at once; those that find
// their key's round in flight are held and follow it folded into one
// access. Each key's first round is answered stale and rebases, and every
// session reads the peer's value — at one rebase per key, however many
// sessions were held behind it.
func TestHeldRoundRebasesPeerAdvancedKey(t *testing.T) {
	const n = 4
	r, peers, _ := newLBLPeers(t, 2, LBLConfig{ValueSize: 4, Mode: LBLPointPermute})
	a, b := peers[0], peers[1]
	data := map[string][]byte{}
	for i := 0; i < n; i++ {
		data[fmt.Sprintf("key-%02d", i)] = []byte{byte(i), 0, 0, 0}
	}
	loadData(t, r, a, data)
	for k, v := range data {
		mustWrite(t, b, k, []byte{v[0], 1, 1, 1})
	}
	var wg sync.WaitGroup
	for s := 0; s < 3*n; s++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := a.AccessContext(context.Background(), OpRead, fmt.Sprintf("key-%02d", i), nil)
			if err != nil {
				t.Errorf("session on key %d: %v, want the peer's value after a rebase", i, err)
			} else if want := []byte{byte(i), 1, 1, 1}; !bytes.Equal(v, want) {
				t.Errorf("session on key %d read %v, want %v", i, v, want)
			}
		}(s % n)
	}
	wg.Wait()
	if got := a.mx.reconciledKeys.Value(); got != n {
		t.Errorf("%d rebases, want one per key (%d)", got, n)
	}
}

// TestBatchRebasesDesyncedKey: one key of a batch is desynchronized by
// two counters. Behind the server's record, the round rebases that key
// and answers it; ahead of it — a rolled-back server — the key fails
// errRolledBack once and the same batch then succeeds. Either way its
// batch mates are answered by the first lap and never fail. The fold
// rows access the desynchronized key three times in the batch: folded,
// they cost one rebase, and every one of them is answered as if applied
// in input order.
func TestBatchRebasesDesyncedKey(t *testing.T) {
	single := []BatchOp{{Op: OpRead, Key: "a"}, {Op: OpRead, Key: "b"}, {Op: OpRead, Key: "c"}}
	fold := []BatchOp{{Op: OpRead, Key: "a"}, {Op: OpRead, Key: "b"}, {Op: OpWrite, Key: "b", Value: []byte{9, 9, 9, 9}}, {Op: OpRead, Key: "b"}, {Op: OpRead, Key: "c"}}
	for _, tc := range []struct {
		name       string
		rolledBack bool
		ops        []BatchOp
		want       [][]byte
	}{
		{"behind/single", false, single, [][]byte{{1, 1, 1, 1}, {8, 8, 8, 8}, {3, 3, 3, 3}}},
		{"behind/fold", false, fold, [][]byte{{1, 1, 1, 1}, {8, 8, 8, 8}, {9, 9, 9, 9}, {9, 9, 9, 9}, {3, 3, 3, 3}}},
		{"ahead/single", true, single, [][]byte{{1, 1, 1, 1}, {2, 2, 2, 2}, {3, 3, 3, 3}}},
		{"ahead/fold", true, fold, [][]byte{{1, 1, 1, 1}, {2, 2, 2, 2}, {9, 9, 9, 9}, {9, 9, 9, 9}, {3, 3, 3, 3}}},
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
				results := proxy.AccessBatch(context.Background(), tc.ops)
				for i, res := range results {
					if key := tc.ops[i].Key; key == "b" && !errors.Is(res.Err, errRolledBack) || key != "b" && res.Err != nil {
						t.Errorf("first batch, op %d on %q: %v", i, key, res.Err)
					}
				}
			}
			values, err := batchValues(proxy.AccessBatch(context.Background(), tc.ops))
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

// TestLadderLapsBounded: a peer that advances the contested key each
// time this proxy is answered stale on it — before the answer arrives —
// leaves every rebase one step behind. The round must give up after
// recoveryAllowance rebases and surface the stale rejection — for that
// key only, and once however many of the round's accesses name the key,
// folded — while the calm key in the same round succeeds.
func TestLadderLapsBounded(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("chain=%d", k), func(t *testing.T) {
			r, peers, srv := newLBLPeers(t, 2, LBLConfig{ValueSize: 4, Mode: LBLPointPermute})
			a, b := peers[0], peers[1]
			contested, calm := "key-00", "key-01"
			loadData(t, r, a, map[string][]byte{contested: {1, 1, 1, 1}, calm: {2, 2, 2, 2}})
			mustWrite(t, b, contested, []byte{3, 3, 3, 3}) // a's first lap is stale

			var staleAnswers atomic.Int64
			var advancing atomic.Bool
			slotLen := a.cfg.ResponseBytesPerAccess()
			r.server.Handle(MsgLBLAccess, func(ctx context.Context, payload []byte) ([]byte, error) {
				resp, err := srv.handleAccess(ctx, payload)
				// Every stale answer to a is overtaken by b advancing the key.
				// b's own access passes through here too, nested inside a's,
				// and is let through.
				if err != nil || !advancing.CompareAndSwap(false, true) {
					return resp, err
				}
				defer advancing.Store(false)
				for i := 0; i < len(resp); i += slotLen {
					if resp[i] == slotStale {
						staleAnswers.Add(1)
						if _, err := b.AccessContext(context.Background(), OpWrite, contested, []byte{4, 4, 4, 4}); err != nil {
							t.Errorf("peer advancing the key: %v", err)
						}
						break
					}
				}
				return resp, nil
			})
			ops := []BatchOp{{Op: OpRead, Key: calm}}
			for i := 0; i < k; i++ {
				ops = append(ops, BatchOp{Op: OpRead, Key: contested})
			}
			results := a.AccessBatch(context.Background(), ops)
			if results[0].Err != nil || !bytes.Equal(results[0].Value, []byte{2, 2, 2, 2}) {
				t.Errorf("calm key: %v, %v", results[0].Value, results[0].Err)
			}
			for i := 1; i <= k; i++ {
				if !IsStaleRound(results[i].Err) {
					t.Errorf("contested access %d: %v, want the stale rejection once the allowance is spent", i, results[i].Err)
				}
			}
			if got := a.mx.reconciledKeys.Value(); got != recoveryAllowance {
				t.Errorf("proxy rebased the key %d times, want recoveryAllowance = %d", got, recoveryAllowance)
			}
			if got := staleAnswers.Load(); got != recoveryAllowance+1 {
				t.Errorf("proxy was answered stale %d times, want one more than its %d rebases", got, recoveryAllowance)
			}
		})
	}
}

// TestSlotStatusNumbers pins the response statuses' wire values: 3 stays
// unassigned, so every other status keeps the number it had, and an
// answer carrying 3 — like any number no status has — is tampering.
func TestSlotStatusNumbers(t *testing.T) {
	got := []byte{slotOK, slotNotFound, slotStale, slotExpired, slotRejected, slotRecordFormat}
	if want := []byte{0, 1, 2, 4, 5, 6}; !bytes.Equal(got, want) {
		t.Errorf("statuses are numbered %v, want %v", got, want)
	}
	for _, status := range []byte{3, 7, 255} {
		if err := slotError(status); !errors.Is(err, ErrTampered) {
			t.Errorf("status %d reads as %v, want ErrTampered", status, err)
		}
	}
}

// TestEntryFormatMismatchIsDefinite: a request stamped with another
// exchange version — v1, as a proxy older than the stamp wrote it, v2,
// which read a label block where this release answers with fields and a
// digest, or v3, whose tables carried a tag per entry and no verifiers —
// comes from a different release. Answered, an older proxy would call the
// slot tampering; its table left to the server would be answered
// slotStale and send the proxy up the ladder to report a
// desynchronization that is not there. Instead it is refused at the
// header: one request, a constant text, no rebase, the record untouched.
func TestEntryFormatMismatchIsDefinite(t *testing.T) {
	for _, format := range []byte{1, 2, 3} {
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
				at := prf.Size + reservedLen
				other[at] &= 1<<modeBits - 1
				if format > 1 { // v1 proxies wrote no stamp
					other[at] |= format << modeBits
				}
				return srv.handleAccess(ctx, other)
			})

			_, err := proxy.AccessContext(context.Background(), OpRead, "k", nil)
			var remote *transport.RemoteError
			if !errors.As(err, &remote) || !strings.Contains(remote.Msg, errEntryFormat.Error()) {
				t.Fatalf("v%d-stamped request: %v, want the entry-format rejection", format, err)
			}
			if transport.Ambiguous(err) || IsStaleRound(err) {
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
	// Each payload keeps the request's key, reserved bytes and table and
	// rewrites the header from the mode byte on, so one that passed the
	// header would open the stored record.
	at := prf.Size + reservedLen
	payload := func(mode byte, groups, entryLen uint64) []byte {
		b := append(bytes.Clone(req[:at]), mode)
		b = binary.AppendUvarint(b, groups)
		b = binary.AppendUvarint(b, entryLen)
		return append(b, req[cfg.segHeaderLen():]...)
	}
	cur := byte(entryFormat << modeBits)
	pp := cur | byte(LBLPointPermute)
	if _, got, err := readSegHeader(wire.NewReader(payload(pp, 16, 16))); err != nil || got != cfg {
		t.Fatalf("the request's own header reads as %+v, %v; want %+v", got, err, cfg)
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"mode 3", payload(cur|3, 16, 16)},
		{"mode 4", payload(cur|4, 16, 24)},
		{"mode 15", payload(cur|15, 16, 16)},
		{"y = 2 groups not whole bytes", payload(pp, 15, 16)},
		{"y = 1 groups not whole bytes", payload(cur|byte(LBLBasic), 12, 24)},
		{"0 groups", payload(pp, 0, 16)},
		{"more than 2^22 groups", payload(pp, maxGroups+4, 16)},
		{"entry length of another mode", payload(pp, 16, 24)},
		{"the tagged entry length of the previous format", payload(pp, 16, 25)},
		{"entry format 2", payload(2<<modeBits|byte(LBLPointPermute), 16, 16)},
		{"entry format 3", payload(3<<modeBits|byte(LBLPointPermute), 16, 16)},
		{"entry format 4, whose requests chained a key's accesses", payload(4<<modeBits|byte(LBLPointPermute), 16, 16)},
		{"entry format 6", payload(6<<modeBits|byte(LBLPointPermute), 16, 16)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := readSegHeader(wire.NewReader(c.payload)); err == nil {
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

// TestOldRecordFormatIsDefinite: a record an earlier release wrote — the
// counter-0 record of the per-block label layout, its mode byte carrying
// no format, or the format-1 record of the keystream layout with
// decryption bits and no verifier — is refused before anything is
// decrypted with the constant record-format text: one request, no
// rebase, the record untouched. Answered stale, the ladder would have
// read a counter from bytes that are no verifier.
func TestOldRecordFormatIsDefinite(t *testing.T) {
	for _, c := range []struct {
		name string
		hex  string
	}{
		// "golden-key" holding C3 5A at counter 0, as each earlier release
		// stored it (TestStoredRecordGolden's counter-0 record before format
		// 1, and under format 1).
		{"no format", "0230b2bc19b94174ee2dbf8415986e4bc58533cae3e78e4f942753232ec93801022b375aeca10b11b15343e9cc58a602" +
			"c2a8402267828f0e0da1f0080771a79ec3cd557ed9d9e36aaa6de39fe4baf0cac625d3b93056d7911d3233c04ae2e81c" +
			"494e9529b31dc8dda08c43bb9f073d3468c667d618d7ba50d09718089c0269e70c0001020300010102"},
		{"format 1", "12d0d8f4d0dfa1773b02f5d27eebc9fa2c11a24d9e2d92cd9d3db70abbcd3194aa231242c475fec65a3681dcf07279f4" +
			"d84f3167d39947036341e411736c7f8f0ee1363d24ceb5d8a2bd1dac16f2da665f5a5d283d0dc00e7afd4daf2387c91b" +
			"c487564597b42197739088425291df8da37624f55aab05d4f8ac421333af7d10950001000101020000"},
	} {
		t.Run(c.name, func(t *testing.T) { oldRecordIsDefinite(t, c.hex) })
	}
}

func oldRecordIsDefinite(t *testing.T, oldHex string) {
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
	old, _ := hex.DecodeString(oldHex)
	regressServer(t, r, proxy, "golden-key", old)

	for _, op := range []Op{OpRead, OpWrite} {
		requests.Store(0)
		_, err := proxy.AccessContext(context.Background(), op, "golden-key", []byte{1, 2})
		var remote *transport.RemoteError
		if !errors.As(err, &remote) || remote.Msg != errRecordFormat.Error() {
			t.Fatalf("%v against an old record: %v, want the record-format rejection", op, err)
		}
		if transport.Ambiguous(err) || IsStaleRound(err) {
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
