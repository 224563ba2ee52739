package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/fhe"
)

// These tests check operation-type obliviousness at the exact boundary
// the paper's adversary controls (§2.3): the server's view of the
// exchanged messages. For each protocol, a run of pure reads and a run
// of pure writes must produce identical multisets of
// (message type, request size, response size) observations — if they
// differ in any way the adversary could count, the protocol leaks.

// exchange is one observed request/response pair.
type exchange struct {
	msgType byte
	reqLen  int
	respLen int
}

// sortExchanges orders observations so that multisets compare
// positionally.
func sortExchanges(s []exchange) {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.msgType != b.msgType {
			return a.msgType < b.msgType
		}
		if a.reqLen != b.reqLen {
			return a.reqLen < b.reqLen
		}
		return a.respLen < b.respLen
	})
}

// serverView records what the untrusted server sees of a rig: one
// exchange per RPC it answered.
type serverView struct {
	mu   sync.Mutex
	seen []exchange
}

func observe(r *rig) *serverView {
	v := &serverView{}
	r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
		v.mu.Lock()
		v.seen = append(v.seen, exchange{msgType, reqLen, respLen})
		v.mu.Unlock()
	})
	return v
}

func (v *serverView) sorted() []exchange {
	v.mu.Lock()
	out := append([]exchange(nil), v.seen...)
	v.mu.Unlock()
	sortExchanges(out)
	return out
}

// observedRun performs ops accesses of the given op and returns the
// sorted observation list.
func observedRun(t *testing.T, mkRig func(t *testing.T) (*rig, Accessor), op Op, valueSize, ops int) []exchange {
	t.Helper()
	r, accessor := mkRig(t)
	view := observe(r)
	value := make([]byte, valueSize)
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("key-%02d", i%4)
		var err error
		if op == OpWrite {
			value[0] = byte(i)
			_, _, err = accessor.Access(OpWrite, key, value)
		} else {
			_, _, err = accessor.Access(OpRead, key, nil)
		}
		if err != nil {
			t.Fatalf("%s %d: %v", op, i, err)
		}
	}
	return view.sorted()
}

func assertIdenticalViews(t *testing.T, reads, writes []exchange) {
	t.Helper()
	if len(reads) != len(writes) {
		t.Fatalf("adversary counts %d exchanges for reads, %d for writes", len(reads), len(writes))
	}
	for i := range reads {
		if reads[i] != writes[i] {
			t.Fatalf("observation %d differs: reads %+v, writes %+v — operation type leaks", i, reads[i], writes[i])
		}
	}
}

func TestObliviousnessTEE(t *testing.T) {
	const valueSize = 16
	const ops = 12
	mkRig := func(t *testing.T) (*rig, Accessor) {
		r, client, _ := newTEE(t, valueSize)
		data := map[string][]byte{}
		for i := 0; i < 4; i++ {
			data[fmt.Sprintf("key-%02d", i)] = make([]byte, valueSize)
		}
		loadData(t, r, client, data)
		return r, client
	}
	reads := observedRun(t, mkRig, OpRead, valueSize, ops)
	writes := observedRun(t, mkRig, OpWrite, valueSize, ops)
	assertIdenticalViews(t, reads, writes)
}

func TestObliviousnessFHE(t *testing.T) {
	const valueSize = 8
	const ops = 4 // noise-limited
	mkRig := func(t *testing.T) (*rig, Accessor) {
		r := newRig(t)
		params, err := fhe.NewParameters(64, 220)
		if err != nil {
			t.Fatal(err)
		}
		cfg := FHEConfig{Params: params, ValueSize: valueSize}
		NewFHEServer(r.store, cfg).Register(r.server)
		client, err := NewFHEClient(cfg, prf.NewRandom(), r.client)
		if err != nil {
			t.Fatal(err)
		}
		data := map[string][]byte{}
		for i := 0; i < 4; i++ {
			data[fmt.Sprintf("key-%02d", i)] = make([]byte, valueSize)
		}
		loadData(t, r, client, data)
		return r, client
	}
	reads := observedRun(t, mkRig, OpRead, valueSize, ops)
	writes := observedRun(t, mkRig, OpWrite, valueSize, ops)
	assertIdenticalViews(t, reads, writes)
}

// TestBaselineAlsoOblivious documents that the 2RTT baseline achieves
// the same observable indistinguishability — at double the round
// count, which is the paper's entire point.
func TestBaselineAlsoOblivious(t *testing.T) {
	const valueSize = 8
	const ops = 12
	mkRig := func(t *testing.T) (*rig, Accessor) {
		r := newRig(t)
		NewBaselineServer(r.store).Register(r.server)
		proxy, err := NewBaselineProxy(BaselineConfig{ValueSize: valueSize}, prf.NewRandom(), secretbox.NewRandomKey(), r.client)
		if err != nil {
			t.Fatal(err)
		}
		data := map[string][]byte{}
		for i := 0; i < 4; i++ {
			data[fmt.Sprintf("key-%02d", i)] = make([]byte, valueSize)
		}
		loadData(t, r, proxy, data)
		return r, proxy
	}
	reads := observedRun(t, mkRig, OpRead, valueSize, ops)
	writes := observedRun(t, mkRig, OpWrite, valueSize, ops)
	assertIdenticalViews(t, reads, writes)
	// And it costs two exchanges per access where ORTOA costs one.
	if len(reads) != 2*ops {
		t.Errorf("baseline produced %d exchanges for %d accesses, want %d", len(reads), ops, 2*ops)
	}
}
