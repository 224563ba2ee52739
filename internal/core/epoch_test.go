package core

import (
	"bytes"
	"fmt"
	"testing"

	"ortoa/internal/crypto/prf"
)

// newLBLPeers returns n proxies sharing one PRF secret and one server —
// the multi-proxy deployment shape: any peer can serve any key, and the
// epoch fence arbitrates which one may.
func newLBLPeers(t *testing.T, n int, cfg LBLConfig) (*rig, []*LBLProxy, *LBLServer) {
	t.Helper()
	r := newRig(t)
	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	f := prf.NewRandom()
	peers := make([]*LBLProxy, n)
	for i := range peers {
		p, err := NewLBLProxy(cfg, f, r.client)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	return r, peers, srv
}

func TestEpochClaimBumpsMonotonically(t *testing.T) {
	_, peers, srv := newLBLPeers(t, 2, LBLConfig{ValueSize: 4, Mode: LBLPointPermute})
	a, b := peers[0], peers[1]
	const rid = uint32(7)
	e1, err := a.ClaimRange(rid)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == 0 {
		t.Fatalf("first claim granted epoch 0")
	}
	e2, err := b.ClaimRange(rid)
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatalf("second claim epoch %d not past first %d", e2, e1)
	}
	if got := srv.RangeEpoch(rid); got != e2 {
		t.Fatalf("server range epoch %d, want %d", got, e2)
	}
	if a.rangeEpoch(rid) != e1 || b.rangeEpoch(rid) != e2 {
		t.Fatalf("proxy epochs a=%d b=%d, want %d/%d", a.rangeEpoch(rid), b.rangeEpoch(rid), e1, e2)
	}
}

func TestEpochFenceRejectsStaleOwner(t *testing.T) {
	r, peers, _ := newLBLPeers(t, 2, LBLConfig{ValueSize: 4, Mode: LBLPointPermute})
	a, b := peers[0], peers[1]
	loadData(t, r, a, map[string][]byte{"k": {1, 2, 3, 4}})
	if _, _, err := a.Access(OpWrite, "k", []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}

	// b adopts k's range; a — AutoAdopt off — is now fenced out.
	if _, err := b.ClaimRange(RangeOf("k")); err != nil {
		t.Fatal(err)
	}
	_, _, err := a.Access(OpWrite, "k", []byte{7, 7, 7, 7})
	if !isFencedRound(err) {
		t.Fatalf("stale owner's access: got %v, want a fenced-round rejection", err)
	}

	// The fence fired before any record work: b reads the pre-fence
	// value (rebasing its empty counter from the stale answer).
	got, _, err := b.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{9, 9, 9, 9}) {
		t.Fatalf("post-fence read = %v, want the pre-fence value", got)
	}
}

func TestEpochFenceErrorTextConstant(t *testing.T) {
	r, peers, _ := newLBLPeers(t, 2, LBLConfig{ValueSize: 4, Mode: LBLPointPermute})
	a, b := peers[0], peers[1]
	loadData(t, r, a, map[string][]byte{"k": {1, 2, 3, 4}, "zzz9": {5, 6, 7, 8}})
	if _, err := b.ClaimRange(RangeOf("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ClaimRange(RangeOf("zzz9")); err != nil {
		t.Fatal(err)
	}
	// Two fenced rounds — different keys, ops, ranges, epochs — must be
	// rejected with byte-identical error text, or fence responses would
	// form distinguishable frame classes (DESIGN.md §14).
	_, _, err1 := a.Access(OpRead, "k", nil)
	_, _, err2 := a.Access(OpWrite, "zzz9", []byte{0, 0, 0, 0})
	if !isFencedRound(err1) || !isFencedRound(err2) {
		t.Fatalf("expected fence rejections, got %v / %v", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("fence texts differ:\n  %q\n  %q", err1, err2)
	}
}

func TestAutoAdoptReclaimsAndRetries(t *testing.T) {
	r, peers, srv := newLBLPeers(t, 2, LBLConfig{ValueSize: 4, Mode: LBLPointPermute, AutoAdopt: true})
	a, b := peers[0], peers[1]
	loadData(t, r, a, map[string][]byte{"k": {1, 2, 3, 4}})
	if _, _, err := a.Access(OpWrite, "k", []byte{5, 5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	rid := RangeOf("k")
	eb, err := b.ClaimRange(rid)
	if err != nil {
		t.Fatal(err)
	}

	// a's next access is fenced behind b's claim; AutoAdopt makes a
	// claim the range back and retry, all inside one Access call.
	got, _, err := a.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatalf("auto-adopting access: %v", err)
	}
	if !bytes.Equal(got, []byte{5, 5, 5, 5}) {
		t.Fatalf("read after adoption = %v", got)
	}
	if a.rangeEpoch(rid) <= eb {
		t.Fatalf("adopter's epoch %d not past the fenced one %d", a.rangeEpoch(rid), eb)
	}
	if srv.RangeEpoch(rid) != a.rangeEpoch(rid) {
		t.Fatalf("server epoch %d, adopter epoch %d", srv.RangeEpoch(rid), a.rangeEpoch(rid))
	}
}

func TestAdoptionRebasesCountersViaReconcile(t *testing.T) {
	r, peers, _ := newLBLPeers(t, 2, LBLConfig{ValueSize: 4, Mode: LBLPointPermute, AutoAdopt: true})
	a, b := peers[0], peers[1]
	loadData(t, r, a, map[string][]byte{"k": {0, 0, 0, 0}})
	// a advances k's schedule well past a fresh proxy's counter.
	for i := 0; i < 5; i++ {
		if _, _, err := a.Access(OpWrite, "k", []byte{byte(i), 0, 0, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// b — empty counter table, as a just-started adopter — claims the
	// range and reads: the claim passes the fence, the stale answer's
	// labels rebase the counter, and the read returns a's last write, in
	// two requests.
	if _, err := b.ClaimRange(RangeOf("k")); err != nil {
		t.Fatal(err)
	}
	requests := accessRequests(r)
	got, _, err := b.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatalf("adopter's first access: %v", err)
	}
	if n := requests.Load(); n != 2 {
		t.Errorf("adopter's first access cost %d requests, want 2", n)
	}
	if !bytes.Equal(got, []byte{4, 0, 0, 4}) {
		t.Fatalf("adopter read = %v, want {4 0 0 4}", got)
	}
	// And writes land: the full ownership transfer works end to end.
	if _, _, err := b.Access(OpWrite, "k", []byte{8, 8, 8, 8}); err != nil {
		t.Fatal(err)
	}
	got, _, err = b.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{8, 8, 8, 8}) {
		t.Fatalf("read after adopter write = %v", got)
	}
}

// TestEpochFencePerKeyInBatch: one fenced key must not fail its batch
// mates, and the fenced key's record stays untouched.
func TestEpochFencePerKeyInBatch(t *testing.T) {
	r, peers, _ := newLBLPeers(t, 2, LBLConfig{ValueSize: 4, Mode: LBLPointPermute})
	a, b := peers[0], peers[1]
	// Find two keys in different ranges so only one is fenced.
	k1, k2 := "k1", ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("other-%d", i)
		if RangeOf(cand) != RangeOf(k1) {
			k2 = cand
			break
		}
	}
	if k2 == "" {
		t.Fatal("could not find a key outside k1's range")
	}
	loadData(t, r, a, map[string][]byte{k1: {1, 1, 1, 1}, k2: {2, 2, 2, 2}})
	if _, err := b.ClaimRange(RangeOf(k1)); err != nil {
		t.Fatal(err)
	}
	values, _, err := a.AccessBatch([]BatchOp{
		{Op: OpRead, Key: k1},
		{Op: OpRead, Key: k2},
	})
	if err == nil || !isFencedRound(err) {
		t.Fatalf("batch with fenced key: err = %v, want fenced-round", err)
	}
	if values[0] != nil {
		t.Fatalf("fenced key returned a value: %v", values[0])
	}
	if !bytes.Equal(values[1], []byte{2, 2, 2, 2}) {
		t.Fatalf("unfenced batch mate = %v, want {2 2 2 2}", values[1])
	}
}
