package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestCounterAcquireCreatesAtZero(t *testing.T) {
	tbl := newCounterTable()
	e := tbl.acquire("k")
	if e.ct != 0 {
		t.Errorf("fresh counter = %d", e.ct)
	}
	e.ct = 5
	tbl.release(e)
	e = tbl.acquire("k")
	if e.ct != 5 {
		t.Errorf("counter lost: %d", e.ct)
	}
	tbl.release(e)
}

func TestCounterMutualExclusion(t *testing.T) {
	tbl := newCounterTable()
	const workers = 16
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				e := tbl.acquire("hot")
				e.ct++
				tbl.release(e)
			}
		}()
	}
	wg.Wait()
	e := tbl.acquire("hot")
	defer tbl.release(e)
	if e.ct != workers*rounds {
		t.Errorf("counter = %d, want %d (lost increments)", e.ct, workers*rounds)
	}
}

func TestCounterSaveLoadRoundTrip(t *testing.T) {
	tbl := newCounterTable()
	want := map[string]uint64{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%04d", i)
		e := tbl.acquire(key)
		e.ct = uint64(i * 7)
		tbl.release(e)
		want[key] = uint64(i * 7)
	}
	var buf bytes.Buffer
	if err := tbl.save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newCounterTable()
	if err := restored.load(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != len(want) {
		t.Fatalf("restored %d keys, want %d", restored.Len(), len(want))
	}
	for key, ct := range want {
		e := restored.acquire(key)
		if e.ct != ct {
			t.Errorf("restored[%q] = %d, want %d", key, e.ct, ct)
		}
		restored.release(e)
	}
}

func TestCounterLoadBadMagic(t *testing.T) {
	tbl := newCounterTable()
	if err := tbl.load(bytes.NewReader([]byte("GARBAGE--PADDING"))); err == nil {
		t.Error("load accepted bad magic")
	}
}

func TestCounterLoadTruncated(t *testing.T) {
	tbl := newCounterTable()
	e := tbl.acquire("k")
	e.ct = 9
	tbl.release(e)
	var buf bytes.Buffer
	if err := tbl.save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if err := newCounterTable().load(bytes.NewReader(trunc)); err == nil {
		t.Error("load accepted truncated snapshot")
	}
}

func TestCounterSaveEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := newCounterTable().save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newCounterTable()
	if err := restored.load(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 0 {
		t.Errorf("restored empty table has %d keys", restored.Len())
	}
}

// TestLBLCountersSurviveProxySwap exercises the protocol-level
// round-trip: proxy A advances counters, proxy B (same PRF key)
// restores them and continues against the same server.
func TestLBLCountersSurviveProxySwap(t *testing.T) {
	r, proxyA, _ := newLBL(t, LBLPointPermute, 4)
	loadData(t, r, proxyA, map[string][]byte{"k": {1, 2, 3, 4}})
	for i := 0; i < 4; i++ {
		if _, err := proxyA.AccessContext(context.Background(), OpRead, "k", nil); err != nil {
			t.Fatal(err)
		}
	}
	var state bytes.Buffer
	if err := proxyA.SaveCounters(&state); err != nil {
		t.Fatal(err)
	}

	proxyB, err := NewLBLProxy(proxyA.Config(), proxyA.prf, r.client)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxyB.LoadCounters(&state); err != nil {
		t.Fatal(err)
	}
	got, err := proxyB.AccessContext(context.Background(), OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("read after counter transfer = %v", got)
	}
}

// TestCounterLoadCorruptSnapshots drives load through the corruption
// classes a real snapshot file can exhibit: wrong or short magic, a
// count field the data cannot back, implausible key lengths, truncation
// at every field boundary, and trailing garbage. Counters are the
// proxy's only unrecoverable state, so every corrupt input must be
// rejected — never half-applied.
func TestCounterLoadCorruptSnapshots(t *testing.T) {
	// A valid two-entry snapshot to mutate: keys "alpha"→3, "beta"→9.
	valid := func() []byte {
		tbl := newCounterTable()
		for k, ct := range map[string]uint64{"alpha": 3, "beta": 9} {
			e := tbl.acquire(k)
			e.ct = ct
			tbl.release(e)
		}
		var buf bytes.Buffer
		if err := tbl.save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", valid[:5]},
		{"bad magic", append([]byte("NOTORTOA"), valid[8:]...)},
		{"missing count", valid[:8]},
		{"short count", valid[:12]},
		{"absurd count", func() []byte {
			d := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint64(d[8:16], maxCounterEntries+1)
			return d
		}()},
		{"count exceeds data", func() []byte {
			d := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint64(d[8:16], 50)
			return d
		}()},
		{"implausible key length", func() []byte {
			d := append([]byte(nil), valid[:16]...)
			return binary.AppendUvarint(d, 1<<21)
		}()},
		{"truncated mid-key", valid[:16+1+2]},
		{"truncated mid-value", valid[:len(valid)-8-3]},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xde, 0xad)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := newCounterTable()
			if err := tbl.load(bytes.NewReader(tc.data)); err == nil {
				t.Fatal("load accepted corrupt snapshot")
			}
			if n := tbl.Len(); n != 0 {
				t.Errorf("corrupt load left %d entries behind (partial application)", n)
			}
		})
	}
}

// TestCounterLoadRejectsWithoutClobbering is the partial-application
// guarantee on a live table: a failed load must leave existing
// counters exactly as they were, even when the snapshot's early
// entries parsed cleanly before the corruption.
func TestCounterLoadRejectsWithoutClobbering(t *testing.T) {
	snap := func() []byte {
		tbl := newCounterTable()
		for i := 0; i < 50; i++ {
			e := tbl.acquire(fmt.Sprintf("key-%02d", i))
			e.ct = 1000 + uint64(i)
			tbl.release(e)
		}
		var buf bytes.Buffer
		if err := tbl.save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	live := newCounterTable()
	e := live.acquire("key-00")
	e.ct = 7
	live.release(e)

	if err := live.load(bytes.NewReader(snap[:len(snap)-4])); err == nil {
		t.Fatal("load accepted truncated snapshot")
	}
	if n := live.Len(); n != 1 {
		t.Errorf("failed load grew the table to %d entries", n)
	}
	e = live.acquire("key-00")
	defer live.release(e)
	if e.ct != 7 {
		t.Errorf("failed load overwrote live counter: %d, want 7", e.ct)
	}
}

// TestCounterSaveWaitsForAKeyOutsideItsStripe: save waits its turn for a
// key a round owns, and must not hold the key's lock stripe meanwhile —
// the owner may be a multi-key round about to look up its next key in
// that very stripe, which would then wait for save, and save for it.
func TestCounterSaveWaitsForAKeyOutsideItsStripe(t *testing.T) {
	tbl := newCounterTable()
	first, second := "key-0", ""
	for i := 1; second == ""; i++ {
		if k := fmt.Sprintf("key-%d", i); RangeOf(k) == RangeOf(first) {
			second = k
		}
	}
	tbl.release(tbl.acquire(second)) // both keys exist before the save counts them
	a := tbl.acquire(first)
	saved := make(chan error, 1)
	go func() { saved <- tbl.save(&bytes.Buffer{}) }()
	for waiting := 0; waiting == 0; runtime.Gosched() { // save is in line for the first key
		a.mu.Lock()
		waiting = len(a.held)
		a.mu.Unlock()
	}
	b := tbl.acquire(second) // the round's next key, same stripe
	tbl.release(b)
	tbl.release(a)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
}

// TestCounterSaveRacesFirstAccesses: saves running while keys get their
// first counter entry — a proxy warming up under -state-interval —
// always succeed and always load, with every key that existed before
// the save at its counter.
func TestCounterSaveRacesFirstAccesses(t *testing.T) {
	tbl := newCounterTable()
	const old, fresh = 20000, 100000
	for i := 0; i < old; i++ {
		e := tbl.acquire(fmt.Sprintf("old-%d", i))
		e.ct = uint64(i)
		tbl.release(e)
	}
	arriving := make(chan struct{})
	go func() {
		defer close(arriving)
		for i := 0; i < fresh; i++ {
			tbl.release(tbl.acquire(fmt.Sprintf("new-%d", i)))
		}
	}()
	for saves := 0; ; saves++ {
		select {
		case <-arriving:
			if saves == 0 {
				t.Fatal("the first accesses were over before a save began")
			}
			return
		default:
		}
		var buf bytes.Buffer
		if err := tbl.save(&buf); err != nil {
			<-arriving
			t.Fatalf("save %d under first accesses: %v", saves, err)
		}
		restored := newCounterTable()
		if err := restored.load(&buf); err != nil {
			<-arriving
			t.Fatalf("save %d does not load: %v", saves, err)
		}
		for k := 0; k < old; k += 997 {
			e := restored.acquire(fmt.Sprintf("old-%d", k))
			if e.ct != uint64(k) {
				<-arriving
				t.Fatalf("save %d: old-%d restored at %d", saves, k, e.ct)
			}
			restored.release(e)
		}
	}
}
