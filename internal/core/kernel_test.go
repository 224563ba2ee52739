package core

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
)

// goldenPRF is the PRF under the key 00 01 … 1f.
func goldenPRF(t testing.TB) *prf.PRF {
	t.Helper()
	key := make([]byte, prf.KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	f, err := prf.New(key)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRequestTableGolden pins the bytes of a whole 160 B point-and-permute
// request — header, verifier pair and every table entry — for a read and
// for a write of "golden-key" at counter 7 under the key 00 01 … 1f, by
// their SHA-256. The build has no randomness in this mode, so the request
// is a function of these inputs alone: a kernel rewrite that moves one
// byte of it fails here, on AES instructions and on the table-driven
// fallback alike (make noaes).
func TestRequestTableGolden(t *testing.T) {
	const (
		readSum  = "f1fb19a7749033b0affe64a8a1b84251c315b27c4c5a257982bba90738775ac6"
		writeSum = "c0b65416953876feff902e9ba3d288acb7209fce40a514f87b4e8761932c233e"
	)
	cfg := LBLConfig{ValueSize: 160, Mode: LBLPointPermute}
	p, err := NewLBLProxy(cfg, goldenPRF(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, cfg.ValueSize)
	for i := range value {
		value[i] = byte(i*37 + 1)
	}
	for _, c := range []struct {
		op   Op
		want string
	}{{OpRead, readSum}, {OpWrite, writeSum}} {
		req, err := p.buildRequest(c.op, "golden-key", value, 7)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(req)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%v request: sha256 = %s, want %s", c.op, got, c.want)
		}
	}
}

// TestPermuteModesAreY2 pins the fact the point-and-permute kernels
// (buildPermuteRange, decryptPermuteRange) are written for instead of
// branching on: every point-and-permute row of the mode table has y = 2,
// so a group is secretbox.GroupPads entries of one padded label, with no
// tag, and a colour is a label's low two bits.
func TestPermuteModesAreY2(t *testing.T) {
	for m, row := range lblModes {
		mode := LBLMode(m)
		if !row.permute {
			continue
		}
		if mode.Y() != 2 || mode.entries() != secretbox.GroupPads || mode.entryLen() != secretbox.PadSize || mode.colourMask() != 3 {
			t.Errorf("%v: y = %d, %d entries of %d bytes, colour mask %#x; the permute kernels need y = 2, %d entries of %d bytes, mask 0x3",
				mode, mode.Y(), mode.entries(), mode.entryLen(), mode.colourMask(), secretbox.GroupPads, secretbox.PadSize)
		}
	}
}

// refPad is the point-and-permute entry written straight from crypto/aes,
// sharing no code with the sealer: body ⊕ π(label) ⊕ label, π being
// AES-128 under the entry domain folded to 16 bytes.
func refPad(t testing.TB, label, body []byte) []byte {
	t.Helper()
	key := make([]byte, 16)
	for i, c := range []byte("ortoa/lbl-entry/v2") {
		key[i%16] ^= c
	}
	pi, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, prf.Size)
	pi.Encrypt(out, label)
	subtle.XORBytes(out, out, label)
	subtle.XORBytes(out, out, body)
	return out
}

// TestPermuteKernelParity holds the point-and-permute kernels to the
// protocol's definition, derived block by block: at value sizes from one
// byte to past a schedule chunk, for a read and a write (of another value
// than the record holds), built whole and
// in worker-sized and frame-sized pieces, every entry e of group g must be
// the counter-ct+1 label of its target bits padded (refPad) under the
// counter-ct label (labelAt) whose colour is e, and the schedule the
// build carries must be those labels. The server's kernel, run over the
// table against recordAt's record in pieces, must recover the record
// recordAt builds at ct+1, name every group's entry by its stored label's
// colour, and digest the labels it installed.
func TestPermuteKernelParity(t *testing.T) {
	const ct = 9
	for _, size := range []int{1, 3, 160, 4096} {
		cfg := LBLConfig{ValueSize: size, Mode: LBLPointPermute}
		p, err := NewLBLProxy(cfg, goldenPRF(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		gen := p.prf.LabelGen("k")
		groups := cfg.Groups()
		value, stored := make([]byte, size), make([]byte, size)
		for i := range value {
			value[i], stored[i] = byte(i*151+7), byte(i*29+200)
		}
		for _, op := range []Op{OpRead, OpWrite} {
			want := make([]byte, cfg.TableBytes()-2*verifierLen)
			for g := 0; g < groups; g++ {
				r := labelAt(p, gen, g, 0, ct)[0] & 3
				for e := uint8(0); e < 4; e++ {
					b := e ^ r
					target := b
					if op == OpWrite {
						target = groupBits(value, g, 2)
					}
					key, body := labelAt(p, gen, g, b, ct), labelAt(p, gen, g, target, ct+1)
					copy(want[(g*4+int(e))*prf.Size:], refPad(t, key[:], body[:]))
				}
			}
			for _, pieces := range []int{1, 3, groups} {
				s := p.spec(op, "k", value, ct)
				table := make([]byte, len(want))
				for i := 0; i < pieces && i < groups; i++ {
					g0, g1 := groups*i/pieces, groups*(i+1)/pieces
					if err := p.buildGroupRange(table[g0*64:g1*64], gen, &buildWorker{shuf: newCryptoShuffler()}, &s, g0, g1, g0); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(table, want) {
					t.Fatalf("%d B %v in %d pieces: the table differs from the block-by-block one", size, op, pieces)
				}
				for g := 0; g < groups; g++ {
					for b := uint8(0); b < 4; b++ {
						l := labelAt(p, gen, g, b, ct+1)
						if !bytes.Equal(s.news[(int(b)*groups+g)*prf.Size:][:prf.Size], l[:]) {
							t.Fatalf("%d B %v: carried label for bits %d of group %d is not the counter-%d label", size, op, b, g, ct+1)
						}
					}
				}

				rec, err := parseLBLRecord(recordAt(p, "k", stored, ct), cfg)
				if err != nil {
					t.Fatal(err)
				}
				labels, fields := make([]byte, groups*prf.Size), make([]byte, size)
				var digest, wantDigest labelDigest
				for i := 0; i < pieces && i < groups; i++ {
					g0, g1 := groups*i/pieces, groups*(i+1)/pieces
					if n, ok := decryptRange(cfg.Mode, new(secretbox.LabelSealer), &rec, table[g0*64:g1*64], g0, g1, labels, fields, &digest); !ok || n != int64(g1-g0) {
						t.Fatalf("%d B %v: groups %d–%d opened %v in %d attempts", size, op, g0, g1, ok, n)
					}
				}
				installed := value
				if op == OpRead {
					installed = stored
				}
				next, _ := cfg.recordParts(recordAt(p, "k", installed, ct+1))
				if !bytes.Equal(labels, next) {
					t.Fatalf("%d B %v in %d pieces: the server installed other labels than the counter-%d record's", size, op, pieces, ct+1)
				}
				for g := 0; g < groups; g++ {
					if got, want := groupBits(fields, g, 2), rec.labels[g*prf.Size]&3; got != want {
						t.Fatalf("%d B %v: group %d's field names entry %d, its stored label's colour is %d", size, op, g, got, want)
					}
					wantDigest.add(next[g*prf.Size:])
				}
				if digest != wantDigest {
					t.Fatalf("%d B %v: digest is not the XOR of the installed labels", size, op)
				}
			}
		}
	}
}

// TestPermuteServerBatchParity holds the server's point-and-permute pass,
// which pads four groups per PadGroup call and the last (g1-g0) % 4 one
// at a time, to a reference that runs it one group at a time. The runs
// start off multiples of four and leave tails of one, two and three
// groups: called directly over those runs, and through the handler on
// the request sent whole and cut into frames of those runs, the new
// labels, the fields and the digest must be the reference's.
func TestPermuteServerBatchParity(t *testing.T) {
	const ct = 5
	cfg := LBLConfig{ValueSize: 160, Mode: LBLPointPermute}
	p, err := NewLBLProxy(cfg, goldenPRF(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	groups, gl := cfg.Groups(), cfg.groupBytes()
	value, stored := make([]byte, cfg.ValueSize), make([]byte, cfg.ValueSize)
	for i := range value {
		value[i], stored[i] = byte(i*151+7), byte(i*29+200)
	}
	record := recordAt(p, "k", stored, ct)
	rec, err := parseLBLRecord(record, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run lengths 1, 5, 6, 7, 3, 10, 2, 11, 4, 8, repeated: after the
	// first every run starts off a multiple of four.
	var cuts []int
	for g, i := 0, 0; g < groups; i++ {
		g = min(g+[]int{1, 5, 6, 7, 3, 10, 2, 11, 4, 8}[i%10], groups)
		cuts = append(cuts, g)
	}
	ek := p.prf.EncodeKey("k")
	for _, op := range []Op{OpRead, OpWrite} {
		req, err := p.buildRequest(op, "k", value, ct)
		if err != nil {
			t.Fatal(err)
		}
		prefix := cfg.segPrefixLen()
		table := req[prefix:]
		wantLabels, wantFields := make([]byte, groups*prf.Size), make([]byte, cfg.ValueSize)
		var wantDigest labelDigest
		for g := 0; g < groups; g++ {
			decryptRange(cfg.Mode, new(secretbox.LabelSealer), &rec, table[g*gl:(g+1)*gl], g, g+1, wantLabels, wantFields, &wantDigest)
		}
		check := func(how string, labels, fields []byte, digest labelDigest) {
			t.Helper()
			if !bytes.Equal(labels, wantLabels) {
				t.Errorf("%v %s: new labels differ from one group at a time", op, how)
			}
			if !bytes.Equal(fields, wantFields) {
				t.Errorf("%v %s: fields %x, one group at a time %x", op, how, fields, wantFields)
			}
			if digest != wantDigest {
				t.Errorf("%v %s: digest differs from one group at a time", op, how)
			}
		}

		labels, fields := make([]byte, groups*prf.Size), make([]byte, cfg.ValueSize)
		var digest labelDigest
		for i, g0 := 0, 0; i < len(cuts); g0, i = cuts[i], i+1 {
			decryptRange(cfg.Mode, new(secretbox.LabelSealer), &rec, table[g0*gl:cuts[i]*gl], g0, cuts[i], labels, fields, &digest)
		}
		check("in runs", labels, fields, digest)

		cut := [][]byte{req[:prefix+cuts[0]*gl]}
		for i := 1; i < len(cuts); i++ {
			cut = append(cut, table[cuts[i-1]*gl:cuts[i]*gl])
		}
		for _, frames := range [][][]byte{{req}, cut} {
			store := specStore(t, string(ek[:]), record)
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
			installed, err := store.Get(string(ek[:]))
			if err != nil {
				t.Fatal(err)
			}
			labels, _ := cfg.recordParts(installed)
			var digest labelDigest
			digest.add(resp[1+cfg.ValueSize:])
			check(fmt.Sprintf("in %d frames", len(frames)), labels, resp[1:1+cfg.ValueSize], digest)
		}
	}
}

// TestServerPassSealerAllocations pins the server's decryption pass over
// an arrived run at zero allocations in every mode. The pass decrypts
// with its segment's sealer: a sealer of its own escapes to the heap,
// since its scratch reaches π through an interface on the generic path
// (make noaes runs this under the purego tag, which takes that path).
func TestServerPassSealerAllocations(t *testing.T) {
	const ct = 3
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := LBLConfig{ValueSize: 160, Mode: mode}
			p, err := NewLBLProxy(cfg, goldenPRF(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			frame, err := p.buildRequest(OpRead, "k", nil, ct)
			if err != nil {
				t.Fatal(err)
			}
			ek := p.prf.EncodeKey("k")
			req := &lblRequest{srv: NewLBLServer(specStore(t, string(ek[:]), recordAt(p, "k", make([]byte, cfg.ValueSize), ct))), ctx: context.Background()}
			if err := req.consume(frame); err != nil {
				t.Fatal(err)
			}
			seg := req.segs[0]
			run := segRun{seg, 0, cfg.Groups(), frame[cfg.segPrefixLen():]}
			if allocs := testing.AllocsPerRun(20, func() { req.decrypt(run) }); allocs != 0 {
				t.Errorf("the server pass over %d groups allocated %.0f times, want 0", cfg.Groups(), allocs)
			}
			if seg.status != slotOK {
				t.Fatalf("the table does not open under its record: slot status %d", seg.status)
			}
		})
	}
}
