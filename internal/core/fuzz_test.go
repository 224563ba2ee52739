package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/fhe"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// The server-side handlers parse payloads from an untrusted network.
// Arbitrary bytes must produce errors, never panics or state
// corruption.

// seededLBLServer returns a server holding one record and a well-formed
// request for it.
func seededLBLServer(tb testing.TB) (*LBLServer, []byte) {
	tb.Helper()
	store := kvstore.New()
	srv := NewLBLServer(store)
	proxy, err := NewLBLProxy(LBLConfig{ValueSize: 4, Mode: LBLPointPermute}, prf.NewRandom(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	ek, rec, err := proxy.BuildRecord("k", []byte{1, 2, 3, 4})
	if err != nil {
		tb.Fatal(err)
	}
	store.Put(ek, rec)
	req, err := proxy.buildRequest(OpRead, "k", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return srv, req
}

// FuzzLBLServerPayload drives the one LBL handler with frame sequences:
// payload is the bytes of a request and cuts says where its frames end
// (each little-endian byte pair is the next frame's length; what is
// left after the last cut is the final frame). Whatever arrives — frames
// reordered, duplicated, short, oversize, or extra, geometry changing
// mid-request, an early end, a continuation with no head, a key repeated
// next to itself or apart (which no proxy sends), a table keyed above or
// below its record's counter or sealed with garbage — the handler must not
// panic, may change a record only for a key whose slot it answered slotOK
// in a request it accepted whole, answers at most one slot per key slotOK,
// and every slot slotOK that it counts as an access served, and fills a
// slot's body only with what it may show: on slotStale zero fields and the
// verifier of a record the store held, on any other failure zeros.
func FuzzLBLServerPayload(f *testing.F) {
	cfg := LBLConfig{ValueSize: 4, Mode: LBLPointPermute, StreamChunkBytes: 256}
	proxy, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
	if err != nil {
		f.Fatal(err)
	}
	// "a" is at counter 0, "b" at counter 5.
	keys, at := []string{"a", "b"}, []uint64{0, 5}
	records := map[string][]byte{}
	specs := make([]tableSpec, len(keys))
	for i, k := range keys {
		ek := proxy.prf.EncodeKey(k)
		records[string(ek[:])] = recordAt(proxy, k, []byte{1, 2, 3, byte(i)}, at[i])
		specs[i] = proxy.spec(OpRead, k, nil, at[i])
	}
	staleBody := func(rec []byte) string {
		return string(append(make([]byte, cfg.ValueSize), rec[max(len(rec)-verifierLen, 0):]...))
	}
	var runs []run
	var frames [][]byte
	for cut := (frameCutter{cfg: cfg, n: len(specs)}); !cut.done(); {
		runs = cut.next(runs[:0])
		frame := make([]byte, cfg.frameBytes(runs))
		if err := proxy.buildFrame(frame, runs, specs); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, frame)
	}
	if len(frames) < 4 {
		f.Fatalf("seed request is %d frames; want several", len(frames))
	}
	seed := func(frames ...[]byte) {
		var payload, cuts []byte
		for i, fr := range frames {
			payload = append(payload, fr...)
			if i < len(frames)-1 {
				cuts = binary.LittleEndian.AppendUint16(cuts, uint16(len(fr)))
			}
		}
		f.Add(payload, cuts)
	}
	last := len(frames) - 1
	modeAt := prf.Size + reservedLen // a segment's mode byte
	geometry := bytes.Clone(bytes.Join(frames, nil))
	// The second segment's header names space-opt, entry length
	// included: a header the server accepts, of another configuration.
	second := cfg.RequestBytesPerAccess() + modeAt
	geometry[second] = byte(LBLSpaceOpt) | entryFormat<<modeBits
	geometry[second+1+wire.UvarintLen(uint64(cfg.Groups()))] = byte(LBLSpaceOpt.entryLen())
	v1 := bytes.Clone(bytes.Join(frames, nil))
	// As a proxy older than the entry-format stamp wrote it.
	v1[modeAt] = byte(cfg.Mode)
	// As a proxy of the release that answered with labels sends it: the
	// same bytes under the previous stamp.
	v2 := bytes.Clone(bytes.Join(frames, nil))
	v2[modeAt] = byte(cfg.Mode) | 2<<modeBits
	// As a proxy of the release whose entries carried tags sends it.
	v3 := bytes.Clone(bytes.Join(frames, nil))
	v3[modeAt] = byte(cfg.Mode) | 3<<modeBits

	seed(frames...)                                                         // well-formed
	seed(bytes.Join(frames, nil))                                           // the same bytes as one frame
	seed(frames[0], frames[2], frames[1])                                   // reordered
	seed(frames[0], frames[1], frames[1], frames[2])                        // duplicated
	seed(frames[0], frames[1][:len(frames[1])-8], frames[2])                // short chunk
	seed(frames[0], append(bytes.Clone(frames[1]), 0, 0, 0, 0, 0, 0, 0, 0)) // oversize chunk
	seed(append(frames[:last+1:last+1], frames[last])...)                   // extra chunk
	seed(geometry)                                                          // geometry changes mid-request
	seed(v1)                                                                // another entry format
	seed(v2)                                                                // an earlier exchange version
	seed(v3)                                                                // the previous exchange version
	seed(frames[:last]...)                                                  // early end
	seed(frames[1:]...)                                                     // continuation with no head
	// A repeated key, which no proxy sends: three segments of "a" and a
	// bystander, cut and whole, keyed at consecutive counters as a chain of
	// the previous exchange version was, with the middle one keyed wrong,
	// and all three at the record's counter; the middle one's expected
	// verifier flipped; the key repeated with the bystander in between.
	repeated := func(counters ...uint64) [][]byte {
		segs := []tableSpec{proxy.spec(OpRead, "a", nil, counters[0]), proxy.spec(OpWrite, "a", []byte{9, 9, 9, 9}, counters[1]),
			proxy.spec(OpRead, "a", nil, counters[2]), specs[1]}
		frames, _ := builtFrames(f, proxy, segs)
		return frames
	}
	seed(repeated(0, 1, 2)...)
	seed(bytes.Join(repeated(0, 1, 2), nil))
	seed(repeated(0, 5, 2)...)
	seed(repeated(0, 0, 0)...)
	wrongMiddle := bytes.Join(repeated(0, 0, 0), nil)
	wrongMiddle[cfg.RequestBytesPerAccess()+cfg.segHeaderLen()] ^= 0x80
	seed(wrongMiddle)
	apart, _ := builtFrames(f, proxy, []tableSpec{specs[0], specs[1], proxy.spec(OpRead, "a", nil, 1)})
	seed(bytes.Join(apart, nil))
	// Stale: "a" keyed above its record, "b" below it, and "a" at its
	// counter with garbage where the table's entries should be.
	desynced, _ := builtFrames(f, proxy, []tableSpec{proxy.spec(OpRead, "a", nil, 3), proxy.spec(OpRead, "b", nil, 2)})
	seed(desynced...)
	garbage := bytes.Clone(frames[0])
	for i := cfg.segHeaderLen(); i < len(garbage); i++ {
		garbage[i] ^= byte(i*131 + 7)
	}
	seed(append([][]byte{garbage}, frames[1:]...)...)
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 17), []byte{1, 0})

	f.Fuzz(func(t *testing.T, payload, cuts []byte) {
		store := kvstore.New()
		for ek, rec := range records {
			store.Put(ek, rec) //nolint:errcheck // no WAL attached
		}
		var sequence [][]byte
		for ; len(cuts) >= 2; cuts = cuts[2:] {
			n := min(int(binary.LittleEndian.Uint16(cuts)), len(payload))
			sequence, payload = append(sequence, payload[:n]), payload[n:]
		}
		sequence = append(sequence, payload)
		var next func() ([]byte, bool, error)
		if len(sequence) > 1 {
			i := 0
			next = func() ([]byte, bool, error) {
				i++
				return sequence[i], i < len(sequence)-1, nil
			}
		}
		srv := NewLBLServer(store)
		resp, err := srv.access(context.Background(), sequence[0], next)
		changed := 0
		for ek, rec := range records {
			if now, _ := store.Get(ek); !bytes.Equal(now, rec) {
				changed++
			}
		}
		held := map[string]bool{}
		for ek, rec := range records {
			now, _ := store.Get(ek)
			held[staleBody(rec)], held[staleBody(now)] = true, true
		}
		// A request accepted whole is its slots' segments of one length back
		// to back, each opening with its encoded key.
		slots := len(resp) / cfg.ResponseBytesPerAccess()
		whole := bytes.Join(sequence, nil)
		installed, perKey := 0, map[string]int{}
		for i := 0; err == nil && i < len(resp); i += cfg.ResponseBytesPerAccess() {
			status, body := resp[i], resp[i+1:i+cfg.ResponseBytesPerAccess()]
			switch {
			case status == slotOK:
				installed++
				seg := i / cfg.ResponseBytesPerAccess() * (len(whole) / slots)
				ek := string(whole[seg : seg+prf.Size])
				if perKey[ek]++; perKey[ek] > 1 {
					t.Fatalf("slot at %d installed a second segment of one key", i)
				}
			case status == slotStale && !held[string(body)]:
				t.Fatalf("slot at %d is stale with body %x, which no record held", i, body)
			case status != slotStale && !bytes.Equal(body, make([]byte, len(body))):
				t.Fatalf("slot at %d failed with status %d and carries %x", i, status, body)
			}
		}
		if changed != installed || srv.Ops() != int64(installed) {
			t.Fatalf("%d records changed, %d slots answered slotOK, %d accesses counted (err %v)", changed, installed, srv.Ops(), err)
		}
	})
}

// FuzzLBLProxyResponse plays a tampering server against the proxy's
// response handling — the slot parser in round, the digest check in
// recoverSlot and the rebase a stale slot's verifier drives. The request
// is two reads of one key whose record is at counter base, folded into
// one segment.
// Every answer the server gives it is rewritten, XORed with mask and
// grown or shrunk by resize bytes before the proxy sees it; rewrite
// (mod 4) leaves it as it is, swaps group 0's field in each slot with the
// first field that differs from it, replays the honest answer to the same
// request one counter earlier, or zeroes every slot's body. When forge
// (mod 3) is set, the first answer, instead of running, is a stale slot
// carrying the verifier of the key's record at counter base+shift —
// which a real server could only send had the record been there — or, at
// 2, another key's verifier at that counter, both XORed with mask too.
// Whatever the answers: no input may panic; no answer that differs from
// the honest one is accepted — an access succeeds only on an untouched
// last answer; an access that succeeds returns the stored value, and both
// do when every answer was honest; unless forged, the counter never
// passes the record's — a verifier is evidence of where the record is;
// another key's verifier never moves the counter; and once the server
// answers honestly again, the key reads within two accesses, the first of
// them refused at most (a counter left past the record is a rollback to
// the proxy).
func FuzzLBLProxyResponse(f *testing.F) {
	const base = 128
	cfg := LBLConfig{ValueSize: 4, Mode: LBLPointPermute}
	slotLen := cfg.ResponseBytesPerAccess()
	const (
		asIs = iota
		swapFields
		replayPrevious
		zeroBodies
	)
	const (
		honest = iota
		ownVerifier
		otherVerifier
	)
	f.Add([]byte{}, int16(0), uint8(honest), int8(0), uint8(asIs))                            // honest
	f.Add([]byte{slotStale}, int16(0), uint8(honest), int8(0), uint8(asIs))                   // status flipped to a rejection
	f.Add([]byte{0x80}, int16(0), uint8(honest), int8(0), uint8(asIs))                        // unknown status
	f.Add([]byte{0, 1}, int16(0), uint8(honest), int8(0), uint8(asIs))                        // one index field flipped
	f.Add([]byte{0, 0, 0, 0, 0, 1}, int16(0), uint8(honest), int8(0), uint8(asIs))            // one digest bit flipped
	f.Add([]byte{}, int16(0), uint8(honest), int8(0), uint8(swapFields))                      // two groups' fields swapped
	f.Add([]byte{}, int16(0), uint8(honest), int8(0), uint8(replayPrevious))                  // the previous counter's slots replayed
	f.Add([]byte{}, int16(0), uint8(honest), int8(0), uint8(zeroBodies))                      // all-zero bodies
	f.Add(make([]byte, slotLen), int16(-1), uint8(honest), int8(0), uint8(asIs))              // one byte short
	f.Add([]byte{}, int16(slotLen), uint8(honest), int8(0), uint8(asIs))                      // a slot too many
	f.Add([]byte{}, int16(-slotLen), uint8(honest), int8(0), uint8(asIs))                     // empty response
	f.Add(bytes.Repeat([]byte{0xFF}, slotLen), int16(0), uint8(honest), int8(0), uint8(asIs)) // everything flipped
	// Stale slots carrying the verifier of a record above, below and at
	// ct; another key's verifier above and below; random bytes.
	f.Add([]byte{}, int16(0), uint8(ownVerifier), int8(1), uint8(asIs))
	f.Add([]byte{}, int16(0), uint8(ownVerifier), int8(2), uint8(asIs))
	f.Add([]byte{}, int16(0), uint8(ownVerifier), int8(100), uint8(asIs))
	f.Add([]byte{}, int16(0), uint8(ownVerifier), int8(-1), uint8(asIs))
	f.Add([]byte{}, int16(0), uint8(ownVerifier), int8(-100), uint8(asIs))
	f.Add([]byte{}, int16(0), uint8(ownVerifier), int8(0), uint8(asIs))
	f.Add([]byte{}, int16(0), uint8(otherVerifier), int8(1), uint8(asIs))
	f.Add([]byte{}, int16(0), uint8(otherVerifier), int8(-1), uint8(asIs))
	f.Add([]byte{0, 0, 0, 0, 0, 0xA5, 0x5A, 0xFF, 0x3C, 0xC3, 0x0F, 0xF0, 0x99, 0x66, 0x55, 0xAA, 0x12, 0x34, 0x56, 0x78, 0x9A},
		int16(0), uint8(ownVerifier), int8(1), uint8(asIs))

	r := &rig{store: kvstore.New(), server: transport.NewServer()}
	l := netsim.Listen(netsim.Loopback)
	go r.server.Serve(l) //nolint:errcheck // returns on Close
	f.Cleanup(func() { r.server.Close() })
	var err error
	if r.client, err = transport.Dial(l.Dial, 1); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { r.client.Close() })
	honestSrv := NewLBLServer(r.store)
	// What the server does to the answers of the access under test: set
	// while it runs, and off for the accesses after it. forged is the first
	// answer when forge is set; previous is what replayPrevious answers.
	var mask []byte
	var resize int
	var rewrite uint8
	var forged, previous []byte
	var tampered, last bool // any answer, and the last one, not the honest one
	r.server.Handle(MsgLBLAccess, func(ctx context.Context, payload []byte) ([]byte, error) {
		if forged != nil {
			reply := forged
			forged, tampered, last = nil, true, true
			return reply, nil
		}
		resp, err := honestSrv.handleAccess(ctx, payload)
		if err != nil {
			return nil, err
		}
		reply := bytes.Clone(resp)
		switch rewrite {
		case swapFields:
			for s := 0; s+slotLen <= len(reply); s += slotLen {
				fields := reply[s+1 : s+1+cfg.ValueSize]
				f0 := groupBits(fields, 0, 2)
				for g := 1; g < cfg.Groups(); g++ {
					if d := f0 ^ groupBits(fields, g, 2); d != 0 {
						fields[0] ^= d
						fields[g/4] ^= d << (g % 4 * 2)
						break
					}
				}
			}
		case replayPrevious:
			reply = bytes.Clone(previous)
		case zeroBodies:
			for s := 0; s+slotLen <= len(reply); s += slotLen {
				clear(reply[s+1 : s+slotLen])
			}
		}
		for i := range reply {
			if i < len(mask) {
				reply[i] ^= mask[i]
			}
		}
		if resize < 0 {
			reply = reply[:max(len(reply)+resize, 0)]
		} else {
			reply = append(reply, make([]byte, resize)...)
		}
		last = !bytes.Equal(reply, resp)
		tampered = tampered || last
		return reply, nil
	})

	f.Fuzz(func(t *testing.T, m []byte, grow int16, forge uint8, shift int8, rw uint8) {
		stored := []byte{1, 2, 3, 4}
		proxy, err := NewLBLProxy(cfg, prf.NewRandom(), r.client)
		if err != nil {
			t.Fatal(err)
		}
		ek := proxy.prf.EncodeKey("k")
		r.store.Put(string(ek[:]), recordAt(proxy, "k", stored, base)) //nolint:errcheck // no WAL attached
		counter := func() uint64 {
			entry := proxy.counters.acquire("k")
			defer proxy.counters.release(entry)
			return entry.ct
		}
		entry := proxy.counters.acquire("k")
		entry.ct = base
		proxy.counters.release(entry)

		mask, resize, rewrite, forged, tampered, last = m, int(grow), rw%4, nil, false, false
		if rewrite == replayPrevious {
			earlier := kvstore.New()
			earlier.Put(string(ek[:]), recordAt(proxy, "k", stored, base-1)) //nolint:errcheck // no WAL attached
			frames, _ := builtFrames(t, proxy, []tableSpec{proxy.spec(OpRead, "k", nil, base-1)})
			if previous, err = NewLBLServer(earlier).handleAccess(context.Background(), bytes.Join(frames, nil)); err != nil {
				t.Fatal(err)
			}
		}
		forge %= 3
		if forge != honest {
			key := map[uint8]string{ownVerifier: "k", otherVerifier: "other"}[forge]
			held := verifierAt(proxy, key, uint64(base+int(shift)))
			forged = append(append([]byte{slotStale}, make([]byte, cfg.ValueSize)...), held...)
			for i := range forged {
				if i < len(m) {
					forged[i] ^= m[i]
				}
			}
		}
		ops := honestSrv.Ops()
		results := proxy.AccessBatch(context.Background(), []BatchOp{{Op: OpRead, Key: "k"}, {Op: OpRead, Key: "k"}})
		ct, record := counter(), uint64(base+honestSrv.Ops()-ops)
		for i, res := range results {
			if res.Err == nil && last {
				t.Fatalf("access %d succeeded on a tampered answer", i)
			}
			if res.Err == nil && !bytes.Equal(res.Value, stored) {
				t.Fatalf("access %d returned %v, want the stored %v", i, res.Value, stored)
			}
			if !tampered && (res.Err != nil || ct != base+1) {
				t.Fatalf("honest answers, access %d: err %v, counter %d", i, res.Err, ct)
			}
		}
		if forge != ownVerifier && ct > record {
			t.Fatalf("counter %d passed the record's %d", ct, record)
		}
		if forge == otherVerifier && ct != base {
			t.Fatalf("another key's verifier moved the counter from %d to %d", base, ct)
		}

		mask, resize, rewrite = nil, 0, asIs
		got, err := proxy.AccessContext(context.Background(), OpRead, "k", nil)
		if errors.Is(err, errRolledBack) {
			got, err = proxy.AccessContext(context.Background(), OpRead, "k", nil)
		}
		if err != nil || !bytes.Equal(got, stored) {
			t.Fatalf("honest server again: read %v, %v; want %v", got, err, stored)
		}
	})
}

func FuzzTEEServerPayload(f *testing.F) {
	store := kvstore.New()
	srv, err := NewTEEServer(store, 0)
	if err != nil {
		f.Fatal(err)
	}
	store.Put("0123456789abcdef", []byte("sealed-record"))
	f.Add([]byte("0123456789abcdef\x05aaaaa\x05bbbbb"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		srv.handleAccess(context.Background(), payload) //nolint:errcheck
	})
}

// FuzzLoadPayload plays a peer sending the loader arbitrary bytes. The
// loader never panics, allocates nothing sized by a count it was sent —
// no more than a small multiple of the payload — and a payload that
// fails to parse stores nothing.
func FuzzLoadPayload(f *testing.F) {
	f.Add([]byte{1, 1, 'k', 1, 'v'})
	f.Add([]byte{2, 1, 'a', 1, 'x', 1, 'b', 2, 'y'}) // the second record cut short
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add(binary.AppendUvarint(nil, 1<<40)) // a count no payload could hold
	f.Fuzz(func(t *testing.T, payload []byte) {
		store := kvstore.New()
		handler := loaderHandler(store)
		var err error
		if n := allocated(func() { _, err = handler(context.Background(), payload) }); n > 64*uint64(len(payload))+1<<20 {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(payload), n)
		}
		if err != nil && store.Len() != 0 {
			t.Fatalf("a payload that failed to parse (%v) stored %d records", err, store.Len())
		}
	})
}

func FuzzLBLRecordParse(f *testing.F) {
	f.Add([]byte{byte(LBLPointPermute)}, uint16(4))                                                 // no record format: an earlier release's
	f.Add(append([]byte{LBLPointPermute.recordByte()}, make([]byte, 16*prf.Size+16)...), uint16(3)) // a 4 B value's record
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, groups uint16) {
		for _, mode := range allLBLModes() {
			parseLBLRecord(raw, LBLConfig{ValueSize: int(groups)%64 + 1, Mode: mode}) //nolint:errcheck
		}
	})
}

// allocated returns the heap bytes allocated while fn runs — by fn, and
// by whatever else runs meanwhile, which the callers' bounds leave room
// for: a megabyte over what the input's length accounts for.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzTEEProxyResponse plays a server answering a TEE access with
// arbitrary bytes. The client never panics, allocates no more than a
// small multiple of what it was sent, and accepts exactly one kind of
// answer: a sealing of a ValueSize value under the data key, whose value
// it returns. Anything else fails with ErrTampered.
func FuzzTEEProxyResponse(f *testing.F) {
	key := secretbox.NewRandomKey()
	box, err := secretbox.NewBox(key)
	if err != nil {
		f.Fatal(err)
	}
	client, err := NewTEEClient(TEEConfig{ValueSize: 4}, prf.NewRandom(), key, nil)
	if err != nil {
		f.Fatal(err)
	}
	other, err := secretbox.NewBox(secretbox.NewRandomKey())
	if err != nil {
		f.Fatal(err)
	}
	honest := box.Seal([]byte{1, 2, 3, 4})
	f.Add(honest)
	f.Add(box.Seal([]byte{1, 2, 3}))      // another length
	f.Add(box.Seal(nil))                  // empty value
	f.Add(other.Seal([]byte{1, 2, 3, 4})) // another key
	f.Add(honest[:len(honest)-1])         // truncated
	f.Add(append(bytes.Clone(honest), 0)) // a byte more
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, resp []byte) {
		var value []byte
		if n := allocated(func() { value, err = client.result(resp) }); n > 16*uint64(len(resp))+1<<20 {
			t.Fatalf("%d bytes of answer cost %d bytes of heap", len(resp), n)
		}
		if plain, oerr := box.Open(resp); oerr == nil && len(plain) == 4 {
			if err != nil || !bytes.Equal(value, plain) {
				t.Fatalf("a sealing of %x: %x, %v", plain, value, err)
			}
		} else if !errors.Is(err, ErrTampered) || value != nil {
			t.Fatalf("not a sealing of a 4-byte value: %x, %v; want ErrTampered", value, err)
		}
	})
}

// fheFuzzConfig is the small parameter set the FHE fuzzers run under.
func fheFuzzConfig(f *testing.F) FHEConfig {
	params, err := fhe.NewParameters(64, 220)
	if err != nil {
		f.Fatal(err)
	}
	return FHEConfig{Params: params, ValueSize: 4}
}

// FuzzFHEProxyResponse plays a server answering an FHE access with
// arbitrary bytes. FHE-ORTOA has no integrity check, so the property is
// weaker than TEE's: the client never panics, its heap grows with what
// it was sent and not with any count inside it, and the answer is an
// error or exactly ValueSize bytes — which bytes, only an honest server
// decides.
func FuzzFHEProxyResponse(f *testing.F) {
	cfg := fheFuzzConfig(f)
	client, err := NewFHEClient(cfg, prf.NewRandom(), nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	ct, err := client.encryptValue([]byte{1, 2, 3, 4})
	if err != nil {
		f.Fatal(err)
	}
	bit, err := cfg.Params.Encrypt(client.sk, cfg.Params.EncodeBit(1))
	if err != nil {
		f.Fatal(err)
	}
	squared, err := cfg.Params.Mul(ct, bit)
	if err != nil {
		f.Fatal(err)
	}
	honest := ct.Marshal(cfg.Params)
	f.Add(honest)
	f.Add(squared.Marshal(cfg.Params))       // degree 2, as after one access
	f.Add(honest[:len(honest)-1])            // truncated
	f.Add(append([]byte{64}, honest[1:]...)) // 64 polynomials claimed, 2 sent
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, resp []byte) {
		var value []byte
		if n := allocated(func() { value, err = client.result(resp) }); n > 2048*uint64(len(resp))+1<<20 {
			t.Fatalf("%d bytes of answer cost %d bytes of heap", len(resp), n)
		}
		if err == nil && len(value) != cfg.ValueSize {
			t.Fatalf("a %d-byte value, want %d", len(value), cfg.ValueSize)
		}
	})
}

// FuzzFHEServerPayload sends the FHE server arbitrary access payloads
// against a store holding one record. It never panics, and a payload it
// refuses leaves the store as it was: the record untouched, no key
// added.
func FuzzFHEServerPayload(f *testing.F) {
	cfg := fheFuzzConfig(f)
	client, err := NewFHEClient(cfg, prf.NewRandom(), nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	ek, rec, err := client.BuildRecord("k", []byte{1, 2, 3, 4})
	if err != nil {
		f.Fatal(err)
	}
	store := kvstore.New()
	srv := NewFHEServer(store, cfg)
	payload := func(cr, cw int, v []byte) []byte {
		w := wire.NewWriter(0)
		w.Raw([]byte(ek))
		for _, b := range []int{cr, cw} {
			ct, err := cfg.Params.Encrypt(client.sk, cfg.Params.EncodeBit(b))
			if err != nil {
				f.Fatal(err)
			}
			w.BytesPfx(ct.Marshal(cfg.Params))
		}
		ct, err := client.encryptValue(v)
		if err != nil {
			f.Fatal(err)
		}
		w.BytesPfx(ct.Marshal(cfg.Params))
		return w.Bytes()
	}
	read := payload(1, 0, make([]byte, 4))
	f.Add(read)
	f.Add(payload(0, 1, []byte{5, 6, 7, 8}))
	f.Add(read[:len(read)-1])
	f.Add(append(bytes.Clone(read), 0))
	f.Add(append([]byte("not-the-key-0000"), read[prf.Size:]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := store.Put(ek, rec); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.handleAccess(context.Background(), payload); err == nil {
			return
		}
		if now, err := store.Get(ek); err != nil || !bytes.Equal(now, rec) {
			t.Fatalf("a refused payload changed the record: %v", err)
		}
		if n := store.Len(); n != 1 {
			t.Fatalf("a refused payload left %d keys in the store, want 1", n)
		}
	})
}
