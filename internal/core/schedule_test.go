package core

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// The table build carries the schedule it derives to recovery
// (tableSpec.news and olds). These tests hold that carried schedule to
// the definition it stands for — re-deriving every label and permute
// word from the PRF — and pin what carrying it is for: recovery derives
// nothing.

// recoverFromPRF is the reference recovery of a response slot's body,
// sharing nothing with the carried schedule: it finds the old bits keying
// each opened entry from the PRF — the permute word at counter ct under
// point-and-permute, otherwise the one counter-ct label that opens the
// entry in table — and recomputes the digest over labels derived afresh
// at counter ct+1.
func recoverFromPRF(p *LBLProxy, op Op, key string, newValue []byte, ct uint64, table, body []byte) ([]byte, error) {
	cfg := p.cfg
	y, n, entryLen := cfg.Mode.Y(), cfg.Mode.entries(), cfg.Mode.entryLen()
	if len(body) != cfg.ValueSize+prf.Size {
		return nil, fmt.Errorf("%w: response slot has %d bytes, want %d", ErrTampered, len(body), cfg.ValueSize+prf.Size)
	}
	gen := p.prf.LabelGen(key)
	sealer := secretbox.NewLabelSealer()
	plain := make([]byte, cfg.Mode.entryPlainLen())
	value := make([]byte, cfg.ValueSize)
	var digest prf.Output
	for g := 0; g < cfg.Groups(); g++ {
		e := int(groupBits(body, g, y))
		old := -1
		if cfg.Mode.hasDbits() {
			old = e ^ int(gen.PermuteBits(g, ct))&(n-1)
		}
		entry := table[(g*n+e)*entryLen : (g*n+e+1)*entryLen]
		for b := 0; old < 0 && b < n; b++ {
			l := gen.Label(g, uint8(b), ct)
			opener, err := sealer.Opener(l[:])
			if err != nil {
				return nil, err
			}
			if opener.OpenInto(plain, entry) == nil {
				old = b
			}
		}
		if old < 0 {
			return nil, fmt.Errorf("reference: entry %d of group %d opens under no counter-%d label", e, g, ct)
		}
		bits := uint8(old)
		if op == OpWrite {
			bits = groupBits(newValue, g, y)
		}
		setGroupBits(value, g, y, bits)
		l := gen.Label(g, bits, ct+1)
		subtle.XORBytes(digest[:], digest[:], l[:])
	}
	if !digest.Equal(prf.Output(body[cfg.ValueSize:])) {
		return nil, fmt.Errorf("%w: label digest mismatch", ErrTampered)
	}
	return value, nil
}

// specStore returns a store holding record under ek.
func specStore(t testing.TB, ek string, record []byte) *kvstore.Store {
	t.Helper()
	store := kvstore.New()
	if err := store.Put(ek, bytes.Clone(record)); err != nil {
		t.Fatal(err)
	}
	return store
}

// serveSpec builds spec's request frame by frame as exchange does and
// applies it to a server over store, returning the request's table and
// the body of the slot it was answered with.
func serveSpec(t testing.TB, p *LBLProxy, spec tableSpec, store *kvstore.Store) (table, body []byte) {
	t.Helper()
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
	return bytes.Join(frames, nil)[p.cfg.segHeaderLen():], resp[1:]
}

// TestCarriedScheduleParity: over every mode, value sizes from one
// byte to 4 KiB, and requests sent whole and cut into frames, recovery
// from the carried schedule must agree with the PRF reference — the same
// value, or the same ErrTampered text — on honest slots, and must fail
// with ErrTampered on tampered ones: an index field flipped, a digest bit
// flipped, two groups' fields swapped, the previous counter's honest slot
// replayed, an all-zero body, a body a byte short, and a write whose
// installed labels are not the value written. A write's fields select
// nothing, so one flipped there is accepted by both.
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
	flipped := func(body []byte, i int) []byte {
		b := bytes.Clone(body)
		b[i] ^= 1 << rnd.IntN(8)
		return b
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
					y := mode.Y()
					stored, written := randomValue(size), randomValue(size)
					ek, rec, err := p.BuildRecord("obj", stored)
					if err != nil {
						t.Fatal(err)
					}
					store := specStore(t, ek, rec)
					check := func(what string, op Op, value []byte, s *tableSpec, table, body []byte) ([]byte, error) {
						t.Helper()
						got, gotErr := p.recoverSlot(op, value, s, body)
						want, wantErr := recoverFromPRF(p, op, "obj", value, s.ct, table, body)
						same(t, what, got, gotErr, want, wantErr)
						return got, gotErr
					}

					// Reads at successive counters, at least two and until
					// one is answered with group 0's field differing from
					// some group g's, so that swapping the two changes the
					// slot.
					var read tableSpec
					var table, body, prev []byte
					g := 0
					for ct := uint64(0); ct < 2 || g == 0; ct++ {
						if ct == 16 {
							t.Fatal("16 reads in a row answered with every field equal")
						}
						read, prev = p.spec(OpRead, "obj", nil, ct), body
						table, body = serveSpec(t, p, read, store)
						if got, _ := check("read", OpRead, nil, &read, table, body); !bytes.Equal(got, stored) {
							t.Fatalf("read recovered %x, want the stored %x", got, stored)
						}
						for g = cfg.Groups() - 1; g > 0 && groupBits(body, g, y) == groupBits(body, 0, y); g-- {
						}
					}
					swapped := bytes.Clone(body)
					d := groupBits(body, 0, y) ^ groupBits(body, g, y)
					swapped[0] ^= d
					swapped[g*y/8] ^= d << (g * y % 8)
					zero := make([]byte, len(body))
					for _, c := range []struct {
						name string
						body []byte
					}{
						{"an index field flipped", flipped(body, rnd.IntN(size))},
						{"a digest bit flipped", flipped(body, size+rnd.IntN(prf.Size))},
						{"two groups' fields swapped", swapped},
						{"the previous counter's slot replayed", prev},
						{"an all-zero body", zero},
						{"a byte short", body[:len(body)-1]},
					} {
						if _, err := check("read, "+c.name, OpRead, nil, &read, table, c.body); !errors.Is(err, ErrTampered) {
							t.Fatalf("read, %s: %v, want ErrTampered", c.name, err)
						}
					}

					prev = body
					write := p.spec(OpWrite, "obj", written, read.ct+1)
					table, body = serveSpec(t, p, write, store)
					if got, _ := check("write", OpWrite, written, &write, table, body); !bytes.Equal(got, written) {
						t.Fatalf("write echoed %x, want %x", got, written)
					}
					if got, _ := check("write, an index field flipped", OpWrite, written, &write, table, flipped(body, rnd.IntN(size))); !bytes.Equal(got, written) {
						t.Fatalf("write with a field flipped echoed %x, want %x", got, written)
					}
					// The server installed labels for written; a proxy that
					// meant another value must notice.
					other := flipped(written, rnd.IntN(size))
					for _, c := range []struct {
						name  string
						value []byte
						body  []byte
					}{
						{"write-back mismatch", other, body},
						{"a digest bit flipped", written, flipped(body, size+rnd.IntN(prf.Size))},
						{"the previous counter's slot replayed", written, prev},
						{"an all-zero body", written, zero},
					} {
						if _, err := check("write, "+c.name, OpWrite, c.value, &write, table, c.body); !errors.Is(err, ErrTampered) {
							t.Fatalf("write, %s: %v, want ErrTampered", c.name, err)
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
	_, body := serveSpec(t, p, spec, specStore(t, ek, rec))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.recoverSlot(OpRead, nil, &spec, body); err != nil {
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

// TestModeTableGolden pins, per row of the mode table, the bytes a mode
// puts on the wire and in the store: its name (the public variant), the
// first byte of its records and the mode byte of its segment headers,
// its entry length, and the record, request and response sizes at 160 B.
// A mode's number is in every stored record, so a table that renumbered
// a row would make a previous release's store parse as another mode; a
// row added or removed fails here too.
func TestModeTableGolden(t *testing.T) {
	type pinned struct {
		recordByte, headerByte    byte
		entryLen                  int
		record, request, response int
	}
	rows := []struct {
		mode LBLMode
		name string
		want pinned
	}{
		{LBLBasic, "basic", pinned{0x10, 0x30, 24, 20481, 61472, 177}},
		{LBLSpaceOpt, "space-opt", pinned{0x11, 0x31, 24, 10241, 61472, 177}},
		{LBLPointPermute, "point-permute", pinned{0x12, 0x32, 25, 10881, 64032, 177}},
	}
	if len(lblModes) != len(rows) {
		t.Fatalf("the mode table has %d rows, this test pins %d", len(lblModes), len(rows))
	}
	for _, c := range rows {
		cfg := LBLConfig{ValueSize: 160, Mode: c.mode}
		p, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, rec, err := p.BuildRecord("k", make([]byte, cfg.ValueSize))
		if err != nil {
			t.Fatal(err)
		}
		req, err := p.buildRequest(OpRead, "k", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := LBLModeNamed(c.name); !ok || m != c.mode || c.mode.String() != c.name {
			t.Errorf("mode %d is named %q; %q names mode %d (found %v)", c.mode, c.mode, c.name, m, ok)
		}
		got := pinned{rec[0], req[prf.Size+lblClaimLen], c.mode.entryLen(), len(rec), len(req), cfg.ResponseBytesPerAccess()}
		if got != c.want {
			t.Errorf("%v: got %+v, want %+v", c.mode, got, c.want)
		}
		if cfg.ServerBytesPerValue() != len(rec) || cfg.RequestBytesPerAccess() != len(req) {
			t.Errorf("%v: the size methods say %d B records and %d B requests, the proxy built %d and %d", c.mode,
				cfg.ServerBytesPerValue(), cfg.RequestBytesPerAccess(), len(rec), len(req))
		}
		if _, _, got, err := readSegHeader(wire.NewReader(req)); err != nil || got != cfg {
			t.Errorf("%v: the server reads the header as %+v, %v; want %+v", c.mode, got, err, cfg)
		}
		if c.mode.entries() > maxEntries {
			t.Errorf("%v: %d entries a group, more than maxEntries = %d", c.mode, c.mode.entries(), maxEntries)
		}
	}
}
