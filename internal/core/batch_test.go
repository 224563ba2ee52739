package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ortoa/internal/crypto/prf"
)

func TestLBLBatchReadInitialValues(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			r, proxy, _ := newLBL(t, mode, 4)
			data := map[string][]byte{}
			var ops []BatchOp
			for i := 0; i < 9; i++ {
				k := fmt.Sprintf("k%d", i)
				data[k] = []byte{byte(i), byte(i * 2), byte(i * 3), byte(i * 4)}
				ops = append(ops, BatchOp{Op: OpRead, Key: k})
			}
			loadData(t, r, proxy, data)
			values, _, err := proxy.AccessBatch(ops)
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				if !bytes.Equal(values[i], data[op.Key]) {
					t.Errorf("batch read %s = %v, want %v", op.Key, values[i], data[op.Key])
				}
			}
		})
	}
}

func TestLBLBatchMixedReadWrite(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			r, proxy, _ := newLBL(t, mode, 2)
			data := map[string][]byte{}
			for i := 0; i < 8; i++ {
				data[fmt.Sprintf("k%d", i)] = []byte{byte(i), 0}
			}
			loadData(t, r, proxy, data)
			// Even indices write, odd indices read.
			var ops []BatchOp
			for i := 0; i < 8; i++ {
				k := fmt.Sprintf("k%d", i)
				if i%2 == 0 {
					ops = append(ops, BatchOp{Op: OpWrite, Key: k, Value: []byte{byte(i), 0xAA}})
				} else {
					ops = append(ops, BatchOp{Op: OpRead, Key: k})
				}
			}
			values, _, err := proxy.AccessBatch(ops)
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				want := data[op.Key]
				if op.Op == OpWrite {
					want = op.Value
				}
				if !bytes.Equal(values[i], want) {
					t.Errorf("batch %s %s = %v, want %v", op.Op, op.Key, values[i], want)
				}
			}
			// Writes must be visible to later single accesses.
			got, _, err := proxy.Access(OpRead, "k0", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte{0, 0xAA}) {
				t.Errorf("read after batch write = %v", got)
			}
		})
	}
}

func TestLBLBatchSingleRPC(t *testing.T) {
	// The tentpole property: a batch over distinct keys costs exactly
	// one round trip, independent of batch size.
	r, proxy, _ := newLBL(t, LBLPointPermute, 2)
	data := map[string][]byte{}
	var ops []BatchOp
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%02d", i)
		data[k] = []byte{byte(i), byte(i)}
		ops = append(ops, BatchOp{Op: OpRead, Key: k})
	}
	loadData(t, r, proxy, data)
	before := r.client.Stats().Calls
	if _, _, err := proxy.AccessBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got := r.client.Stats().Calls - before; got != 1 {
		t.Errorf("batch of %d distinct keys made %d RPCs, want 1", len(ops), got)
	}
}

func TestLBLBatchDuplicateKeys(t *testing.T) {
	// A key named more than once travels as one chain: its accesses are
	// keyed at consecutive counters, applied in input order inside the
	// one round trip, and each is answered from its own slot — so
	// the read behind the write returns the written value — in every
	// variant (point-and-permute carries its decryption bits through the
	// chain).
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			r, proxy, srv := newLBL(t, mode, 2)
			loadData(t, r, proxy, map[string][]byte{"dup": {1, 1}, "other": {9, 9}})
			ops := []BatchOp{
				{Op: OpRead, Key: "dup"},
				{Op: OpWrite, Key: "dup", Value: []byte{2, 2}},
				{Op: OpRead, Key: "dup"},
				{Op: OpRead, Key: "other"},
			}
			before := r.client.Stats().Calls
			values, _, err := proxy.AccessBatch(ops)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.client.Stats().Calls - before; got != 1 {
				t.Errorf("batch with a triplicate key made %d RPCs, want 1", got)
			}
			want := [][]byte{{1, 1}, {2, 2}, {2, 2}, {9, 9}}
			for i := range want {
				if !bytes.Equal(values[i], want[i]) {
					t.Errorf("op %d value = %v, want %v", i, values[i], want[i])
				}
			}
			if got := srv.Ops(); got != 4 {
				t.Errorf("server counted %d accesses, want 4", got)
			}
			// The counter committed all three steps: the key is still in step.
			got, _, err := proxy.Access(OpRead, "dup", nil)
			if err != nil || !bytes.Equal(got, []byte{2, 2}) {
				t.Errorf("read after the chain = %v, %v", got, err)
			}
		})
	}
}

func TestLBLBatchMissingKeyPartialFailure(t *testing.T) {
	// One unloaded key fails individually; every other access completes
	// and commits its counter, so subsequent accesses still work.
	r, proxy, _ := newLBL(t, LBLPointPermute, 2)
	loadData(t, r, proxy, map[string][]byte{"a": {1, 1}, "b": {2, 2}})
	values, _, err := proxy.AccessBatch([]BatchOp{
		{Op: OpRead, Key: "a"},
		{Op: OpRead, Key: "ghost"},
		{Op: OpWrite, Key: "b", Value: []byte{3, 3}},
	})
	if err == nil {
		t.Fatal("batch containing a missing key returned no error")
	}
	if !bytes.Equal(values[0], []byte{1, 1}) {
		t.Errorf("value[0] = %v, want [1 1]", values[0])
	}
	if values[1] != nil {
		t.Errorf("value[1] = %v for missing key, want nil", values[1])
	}
	if !bytes.Equal(values[2], []byte{3, 3}) {
		t.Errorf("value[2] = %v, want [3 3]", values[2])
	}
	// Counters of the successful accesses committed: the proxy and
	// server label schedules still agree.
	got, _, err := proxy.Access(OpRead, "a", nil)
	if err != nil {
		t.Fatalf("access after partial batch failure: %v", err)
	}
	if !bytes.Equal(got, []byte{1, 1}) {
		t.Errorf("read a = %v", got)
	}
	got, _, err = proxy.Access(OpRead, "b", nil)
	if err != nil {
		t.Fatalf("access after partial batch failure: %v", err)
	}
	if !bytes.Equal(got, []byte{3, 3}) {
		t.Errorf("read b = %v", got)
	}
}

func TestLBLBatchValueSizeValidation(t *testing.T) {
	_, proxy, _ := newLBL(t, LBLPointPermute, 4)
	_, _, err := proxy.AccessBatch([]BatchOp{{Op: OpWrite, Key: "k", Value: []byte{1}}})
	if !errors.Is(err, ErrValueSize) {
		t.Errorf("short batch write = %v, want ErrValueSize", err)
	}
}

func TestLBLBatchEmpty(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 4)
	before := r.client.Stats().Calls
	values, _, err := proxy.AccessBatch(nil)
	if err != nil || len(values) != 0 {
		t.Errorf("empty batch = %v, %v", values, err)
	}
	if got := r.client.Stats().Calls - before; got != 0 {
		t.Errorf("empty batch made %d RPCs", got)
	}
}

func TestLBLBatchInterleavedWithSingles(t *testing.T) {
	// Batches and single accesses racing on the same keys must keep the
	// counter schedule consistent (run with -race for full value).
	r, proxy, _ := newLBL(t, LBLPointPermute, 2)
	data := map[string][]byte{}
	var keys []string
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		data[k] = []byte{byte(i), 0}
		keys = append(keys, k)
	}
	loadData(t, r, proxy, data)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			var ops []BatchOp
			for _, k := range keys {
				ops = append(ops, BatchOp{Op: OpWrite, Key: k, Value: []byte{byte(w), 1}})
			}
			if _, _, err := proxy.AccessBatch(ops); err != nil {
				t.Errorf("batch %d: %v", w, err)
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for _, k := range keys {
				if _, _, err := proxy.Access(OpRead, k, nil); err != nil {
					t.Errorf("single read %s: %v", k, err)
				}
			}
		}(w)
	}
	wg.Wait()
	// Every key must still be consistently accessible.
	for _, k := range keys {
		if _, _, err := proxy.Access(OpRead, k, nil); err != nil {
			t.Errorf("final read %s: %v", k, err)
		}
	}
}

// --- shuffle randomness ---

func TestLBLShuffleDiffersAcrossProxies(t *testing.T) {
	// Two proxies sharing a PRF key build requests for the same key at
	// the same counter. Every input is identical, so any difference can
	// only come from the step-1.5 shuffle — which must draw fresh
	// crypto randomness per request rather than a seedable stream an
	// adversary could reproduce.
	key := bytes.Repeat([]byte{7}, prf.KeySize)
	mk := func() *LBLProxy {
		f, err := prf.New(key)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewLBLProxy(LBLConfig{ValueSize: 16, Mode: LBLBasic}, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	differed := false
	for i := 0; i < 8; i++ {
		ra, err := a.buildRequest(OpRead, "k", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.buildRequest(OpRead, "k", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("request sizes differ: %d vs %d", len(ra), len(rb))
		}
		if !bytes.Equal(ra, rb) {
			differed = true
			break
		}
	}
	if !differed {
		t.Error("8 independent requests for identical inputs were byte-identical — shuffle randomness is predictable")
	}
}

func TestCryptoShufflerPermutes(t *testing.T) {
	// shuffle must produce a permutation (no element lost or duplicated)
	// and must not be the identity every time.
	shuf := newCryptoShuffler()
	const n = 64
	moved := false
	for trial := 0; trial < 4; trial++ {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		shuf.shuffle(n, func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		seen := make([]bool, n)
		for i, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("trial %d: not a permutation: %v", trial, perm)
			}
			seen[v] = true
			if v != i {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("4 shuffles of 64 elements were all the identity permutation")
	}
}

func TestCryptoShufflerIntNBounds(t *testing.T) {
	shuf := newCryptoShuffler()
	for i := 0; i < 10000; i++ {
		n := 1 + i%17
		if got := shuf.intN(n); got < 0 || got >= n {
			t.Fatalf("intN(%d) = %d", n, got)
		}
	}
}

// TestAccessBatchResultsPerOpErrors exercises the per-op outcome API
// directly: valid and invalid ops mixed in one call.
func TestAccessBatchResultsPerOpErrors(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 4)
	loadData(t, r, proxy, map[string][]byte{
		"alpha": {1, 0, 0, 0},
		"beta":  {2, 0, 0, 0},
	})
	res, _ := proxy.AccessBatchResults(context.Background(), []BatchOp{
		{Op: OpRead, Key: "alpha"},
		{Op: OpWrite, Key: "beta", Value: []byte{9}}, // wrong size
		{Op: OpRead, Key: "missing"},
		{Op: OpWrite, Key: "beta", Value: []byte{7, 0, 0, 0}},
		{Op: Op(99), Key: "alpha"},
		{Op: OpRead, Key: "beta"},
	})
	if res[0].Err != nil || res[0].Value[0] != 1 {
		t.Errorf("op 0 = %+v, want alpha's value", res[0])
	}
	if !errors.Is(res[1].Err, ErrValueSize) {
		t.Errorf("op 1 err = %v, want ErrValueSize", res[1].Err)
	}
	if res[2].Err == nil {
		t.Error("op 2 (missing key) succeeded, want error")
	}
	if res[3].Err != nil || !bytes.Equal(res[3].Value, []byte{7, 0, 0, 0}) {
		t.Errorf("op 3 = %+v, want written value echoed", res[3])
	}
	if res[4].Err == nil {
		t.Error("op 4 (unknown op) succeeded, want error")
	}
	// Ops 3 and 5 hit the same key, so they ran as one chain, in input
	// order; the read behind the write sees it.
	if res[5].Err != nil || res[5].Value[0] != 7 {
		t.Errorf("op 5 = %+v, want beta's new value", res[5])
	}
}
