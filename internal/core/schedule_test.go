package core

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
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
// each opened entry from labels derived afresh at counter ct — the one
// whose colour is the entry's index under point-and-permute, otherwise
// the one that opens the entry in table — and recomputes the digest over
// labels derived afresh at counter ct+1.
func recoverFromPRF(p *LBLProxy, op Op, key string, newValue []byte, ct uint64, table, body []byte) ([]byte, error) {
	cfg := p.cfg
	y, n, entryLen := cfg.Mode.Y(), cfg.Mode.entries(), cfg.Mode.entryLen()
	if len(body) != cfg.ValueSize+prf.Size {
		return nil, fmt.Errorf("%w: response slot has %d bytes, want %d", ErrTampered, len(body), cfg.ValueSize+prf.Size)
	}
	gen := p.prf.LabelGen(key)
	sealer := secretbox.NewLabelSealer()
	plain := make([]byte, prf.Size)
	value := make([]byte, cfg.ValueSize)
	var digest prf.Output
	for g := 0; g < cfg.Groups(); g++ {
		e := int(groupBits(body, g, y))
		old := -1
		entry := table[(g*n+e)*entryLen : (g*n+e+1)*entryLen]
		for b := 0; old < 0 && b < n; b++ {
			l := labelAt(p, gen, g, uint8(b), ct)
			if cfg.Mode.permute() {
				if int(l[0])&(n-1) == e {
					old = b
				}
				continue
			}
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
		l := labelAt(p, gen, g, bits, ct+1)
		subtle.XORBytes(digest[:], digest[:], l[:])
	}
	if digest != prf.Output(body[cfg.ValueSize:]) {
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
// applies it to a server over store, returning the request's table
// entries and the body of the slot it was answered with.
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
	return bytes.Join(frames, nil)[p.cfg.segPrefixLen():], resp[1:]
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
						meant := *s // a write recovered as if the proxy had meant value
						if op == OpWrite {
							meant.value = value
						}
						got, gotErr := answered(p, &meant, body)
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

// answered is what a round of one answers the access s was built for
// out of body, its response slot past the status: the value read, or
// the value written echoed.
func answered(p *LBLProxy, s *tableSpec, body []byte) ([]byte, error) {
	member := [1]roundAccess{{BatchOp: BatchOp{Op: s.op, Key: s.key, Value: s.value}}}
	c := foldKey(member[:])
	p.recoverKey(&c, s, append([]byte{slotOK}, body...))
	return member[0].value, c.err
}

// TestRecoveryAllocatesOnlyTheValue: with the schedule carried,
// recovering a 160 B response derives nothing — no label generator, no
// key schedule — and allocates one value per access answered: the
// returned value alone for a round of one, and for a folded round one a
// member, whatever the mix, the first member's holding what the key held
// before.
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
	written := make([]byte, cfg.ValueSize)
	for _, ops := range [][]Op{{OpRead}, {OpWrite}, {OpRead, OpRead, OpRead}, {OpRead, OpWrite, OpRead, OpWrite, OpRead}} {
		members := make([]roundAccess, len(ops))
		for i, op := range ops {
			members[i].BatchOp = BatchOp{Op: op, Key: "obj"}
			if op == OpWrite {
				members[i].Value = written
			}
		}
		c := foldKey(members)
		spec := p.spec(c.Op, "obj", c.Value, 0)
		_, body := serveSpec(t, p, spec, specStore(t, ek, rec))
		slot := append([]byte{slotOK}, body...)
		if allocs := testing.AllocsPerRun(100, func() {
			if p.recoverKey(&c, &spec, slot); c.err != nil {
				t.Fatal(c.err)
			}
		}); allocs != float64(len(ops)) {
			t.Errorf("recovering a round of %v allocates %v times, want %d: one value a member", ops, allocs, len(ops))
		}
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
				if _, err := proxy.AccessContext(context.Background(), OpRead, k, nil); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if _, err := batchValues(proxy.AccessBatch(context.Background(), []BatchOp{{Op: OpRead, Key: "key-00"}, {Op: OpRead, Key: "key-01"}, {Op: OpRead, Key: "never-loaded"}})); err == nil {
		t.Fatal("batch with an unloaded key succeeded")
	}
	held("after concurrent rounds and a partly failed batch")

	plan.SetActive(true)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	_, err := proxy.AccessContext(ctx, OpWrite, "key-00", bytes.Repeat([]byte{0xAB}, 8))
	cancel()
	if !transport.Ambiguous(err) {
		t.Fatalf("blackholed write: %v, want an ambiguous failure", err)
	}
	plan.SetActive(false)
	held("after an ambiguous round")

	if _, err := proxy.AccessContext(context.Background(), OpRead, "key-00", nil); err != nil {
		t.Fatalf("read after the ambiguous round: %v", err)
	}
	held("after the rebase settled the ambiguous round")
}

// TestStoredRecordGolden pins the stored record — the mode byte with the
// record format in its high bits, the labels, coloured under
// point-and-permute, then the verifier — under record format 2: the
// record BuildRecord writes at counter 0, and the one three accesses
// leave at counter 3. Both equal recordAt's, which derives every label
// block by block and the verifier straight from crypto/aes. Format 1
// (TestOldRecordFormatIsDefinite) differs from format 2 in the labels'
// colour bits and carried decryption bits where format 2 carries the
// verifier. If this test fails, the change at hand has moved the label
// schedule or the record layout, and existing deployments' data with it:
// bump recordFormat, and re-pin.
func TestStoredRecordGolden(t *testing.T) {
	const (
		encKey   = "6fdf74f44de6d9dccb9052036d363aeb"
		counter0 = "22d0d8f4d0dfa1773b02f5d27eebc9fa2c11a24d9e2d92cd9d3db70abbcd3194aa231242c475fec65a3681dcf07279f4" +
			"d84f3167d39947036341e411736c7f8f0ee1363d24ceb5d8a2bd1dac16f2da665f585d283d0dc00e7afd4daf2387c91b" +
			"c486564597b42197739088425291df8da37424f55aab05d4f8ac421333af7d109543dc437d6c66bfeaa6ae290b0e12baee"
		counter3 = "2218b58e7c54d70319eaa532bc4d69ac0e885caeb84c57264d3ef5f583eaadffe5ab38e5c8ea56964bee5873814b0c27" +
			"1d565ea6b0e5c7a6f37f59346dca0ff47baddc6ffe4211739c1d49236769158bcf120541ffb51670098aa70388ec3254" +
			"5453c941eb9ccde118f4d15d4f7ed833b30b8e3b413c2c7eee428b2c7074071ee99e356bf26d05bc7ccf9c302bad39eeaf"
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
	if got := hex.EncodeToString(recordAt(proxy, "golden-key", []byte{0xC3, 0x5A}, 0)); got != counter0 {
		t.Errorf("recordAt(0) = %s, want %s", got, counter0)
	}
	if got := hex.EncodeToString(recordAt(proxy, "golden-key", []byte{0x96, 0x69}, 3)); got != counter3 {
		t.Errorf("recordAt(3) = %s, want %s", got, counter3)
	}
	if err := r.store.Put(ek, rec); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, proxy, "golden-key", []byte{0x0F, 0xF0})
	if _, err := proxy.AccessContext(context.Background(), OpRead, "golden-key", nil); err != nil {
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
		{LBLBasic, "basic", pinned{0x20, 0x50, 24, 20497, 61504, 177}},
		{LBLSpaceOpt, "space-opt", pinned{0x21, 0x51, 24, 10257, 61504, 177}},
		{LBLPointPermute, "point-permute", pinned{0x22, 0x52, 16, 10257, 41024, 177}},
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
		got := pinned{rec[0], req[prf.Size+reservedLen], c.mode.entryLen(), len(rec), len(req), cfg.ResponseBytesPerAccess()}
		if got != c.want {
			t.Errorf("%v: got %+v, want %+v", c.mode, got, c.want)
		}
		if cfg.ServerBytesPerValue() != len(rec) || cfg.RequestBytesPerAccess() != len(req) {
			t.Errorf("%v: the size methods say %d B records and %d B requests, the proxy built %d and %d", c.mode,
				cfg.ServerBytesPerValue(), cfg.RequestBytesPerAccess(), len(rec), len(req))
		}
		if _, got, err := readSegHeader(wire.NewReader(req)); err != nil || got != cfg {
			t.Errorf("%v: the server reads the header as %+v, %v; want %+v", c.mode, got, err, cfg)
		}
		if c.mode.entries() > maxEntries {
			t.Errorf("%v: %d entries a group, more than maxEntries = %d", c.mode, c.mode.entries(), maxEntries)
		}
	}
}

// TestAESBlocksGolden pins, per row of the mode table, the AES blocks one
// 160 B access costs each side (ProxyAESBlocks, ServerAESBlocks): the
// floor the kernel benchmarks report ns/block against. Point-and-permute
// is 8 keystream blocks and 4 pads a group at the proxy, one pad a group
// at the server (§10.2).
func TestAESBlocksGolden(t *testing.T) {
	for _, c := range []struct {
		mode                    LBLMode
		proxyCTR, proxySingle   int
		serverCTR, serverSingle int
	}{
		{LBLBasic, 5120, 5122, 0, 2560},
		{LBLSpaceOpt, 5120, 5122, 0, 1280},
		{LBLPointPermute, 5120, 2562, 0, 640},
	} {
		cfg := LBLConfig{ValueSize: 160, Mode: c.mode}
		pc, ps := cfg.ProxyAESBlocks()
		sc, ss := cfg.ServerAESBlocks()
		if pc != c.proxyCTR || ps != c.proxySingle || sc != c.serverCTR || ss != c.serverSingle {
			t.Errorf("%v: proxy %d CTR + %d single, server %d + %d; want %d + %d, %d + %d",
				c.mode, pc, ps, sc, ss, c.proxyCTR, c.proxySingle, c.serverCTR, c.serverSingle)
		}
	}
}

// TestVerifierKnownAnswer pins the record verifier: v_ct = AES-128 under
// HMAC-SHA256(key, 06)[:16] of PRF(k)[:8] ‖ ct (big-endian), computed here
// from crypto/hmac and crypto/aes alone, for "golden-key" at counter 3
// under the key 00 01 … 1f — on AES instructions and on Go's table-driven
// fallback alike (make noaes). Opening it gives the counter back for its
// own key and refuses it for another.
func TestVerifierKnownAnswer(t *testing.T) {
	const want = "9e356bf26d05bc7ccf9c302bad39eeaf" // the last 16 bytes of TestStoredRecordGolden's counter-3 record
	key := make([]byte, prf.KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	mac := func(parts ...[]byte) []byte {
		h := hmac.New(sha256.New, key)
		for _, p := range parts {
			h.Write(p)
		}
		return h.Sum(nil)
	}
	kv, err := aes.NewCipher(mac([]byte{0x06})[:16])
	if err != nil {
		t.Fatal(err)
	}
	ek := mac([]byte{0x01}, binary.LittleEndian.AppendUint64(nil, uint64(len("golden-key"))), []byte("golden-key"))[:16]
	ref := binary.BigEndian.AppendUint64(bytes.Clone(ek[:8]), 3)
	kv.Encrypt(ref, ref)
	if got := hex.EncodeToString(ref); got != want {
		t.Errorf("reference verifier = %s, want %s", got, want)
	}

	f, err := prf.New(key)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewLBLProxy(LBLConfig{ValueSize: 2, Mode: LBLPointPermute}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, verifierLen)
	p.vk.seal(got, f.EncodeKey("golden-key"), 3)
	if hex.EncodeToString(got) != want {
		t.Errorf("sealed verifier = %x, want %s", got, want)
	}
	if ct, ok := p.vk.open(got, f.EncodeKey("golden-key")); !ok || ct != 3 {
		t.Errorf("opened as counter %d (its own key's: %v), want 3 and true", ct, ok)
	}
	if _, ok := p.vk.open(got, f.EncodeKey("other-key")); ok {
		t.Error("another key opened the verifier as its own")
	}
}

// TestBuildIsOpIndependent: a read and a write of one key at one counter,
// built over the same shuffle stream, make the same sealer calls over the
// same schedule rows, group for group: every slot is sealed under the
// same old label (olds agree, and the entry opens under that label
// derived afresh), the new-label rows are the same (news agree), and the
// entries differ only in which of those new labels each carries — the
// read's the bits keying it, the write's the written value's. In every
// mode, with the value's bits and a read's zero value disagreeing.
func TestBuildIsOpIndependent(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := LBLConfig{ValueSize: 8, Mode: mode}
			p, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
			if err != nil {
				t.Fatal(err)
			}
			const ct = 7
			written := []byte{0xFF, 0x5A, 0xA5, 0x0F, 0xF0, 0x3C, 0xC3, 0x99}
			seed := newShuffleSeed()
			build := func(op Op) (tableSpec, []byte) {
				s := p.spec(op, "k", written, ct)
				table := make([]byte, cfg.TableBytes())
				if err := p.buildGroupRange(table, p.prf.LabelGen("k"), &buildWorker{shuf: seed.stream(0)}, &s, 0, cfg.Groups(), 0); err != nil {
					t.Fatal(err)
				}
				return s, table
			}
			read, readTable := build(OpRead)
			write, writeTable := build(OpWrite)
			if !bytes.Equal(read.news, write.news) || !bytes.Equal(read.olds, write.olds) {
				t.Fatal("a read and a write carry different schedules")
			}
			gen := p.prf.LabelGen("k")
			sealer := secretbox.NewLabelSealer()
			y, n, entryLen := mode.Y(), mode.entries(), mode.entryLen()
			for g := 0; g < cfg.Groups(); g++ {
				for e := 0; e < n; e++ {
					b := read.olds[g*n+e]
					key := labelAt(p, gen, g, b, ct)
					for _, c := range []struct {
						op     Op
						table  []byte
						target uint8
					}{{OpRead, readTable, b}, {OpWrite, writeTable, groupBits(written, g, y)}} {
						entry := c.table[(g*n+e)*entryLen : (g*n+e+1)*entryLen]
						got := make([]byte, prf.Size)
						if mode.permute() {
							sealer.Pad((*[prf.Size]byte)(got), (*[prf.Size]byte)(key[:]), (*[prf.Size]byte)(entry))
						} else {
							var o secretbox.LabelOpener
							if o, err = sealer.Opener(key[:]); err == nil {
								err = o.OpenInto(got, entry)
							}
						}
						if err != nil {
							t.Fatalf("%v group %d entry %d: does not open under the old label for bits %d: %v", c.op, g, e, b, err)
						}
						if want := labelAt(p, gen, g, c.target, ct+1); !bytes.Equal(got, want[:]) {
							t.Fatalf("%v group %d entry %d carries %x, want the new label for bits %d", c.op, g, e, got, c.target)
						}
					}
				}
			}
		})
	}
}
