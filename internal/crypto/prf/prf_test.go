package prf

import (
	"bytes"
	"encoding/hex"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewKeyLength(t *testing.T) {
	if _, err := New(make([]byte, 16)); err == nil {
		t.Error("New accepted a short key")
	}
	if _, err := New(make([]byte, KeySize)); err != nil {
		t.Errorf("New rejected a %d-byte key: %v", KeySize, err)
	}
}

func TestDeterminism(t *testing.T) {
	p := NewRandom()
	if p.EncodeKey("k1") != p.EncodeKey("k1") {
		t.Error("EncodeKey not deterministic")
	}
	if p.Label("k1", 3, 1, 7) != p.Label("k1", 3, 1, 7) {
		t.Error("Label not deterministic")
	}
	if g := p.LabelGen("k1"); g.PermuteBits(3, 7) != g.PermuteBits(3, 7) {
		t.Error("PermuteBits not deterministic")
	}
}

func TestKeyRestoration(t *testing.T) {
	p := NewRandom()
	q, err := New(p.Key())
	if err != nil {
		t.Fatal(err)
	}
	if p.EncodeKey("abc") != q.EncodeKey("abc") {
		t.Error("PRF restored from Key() disagrees with original")
	}
}

func TestDistinctKeysDistinctOutputs(t *testing.T) {
	p, q := NewRandom(), NewRandom()
	if p.EncodeKey("k") == q.EncodeKey("k") {
		t.Error("two random PRFs coincide (astronomically unlikely)")
	}
}

func TestDomainSeparation(t *testing.T) {
	// The same underlying inputs through different roles must differ.
	p := NewRandom()
	enc := p.EncodeKey("k")
	lbl := p.Label("k", 0, 0, 0)
	if enc == lbl {
		t.Error("EncodeKey and Label collide on identical inputs")
	}
}

func TestLabelSensitivity(t *testing.T) {
	p := NewRandom()
	base := p.Label("k", 1, 0, 5)
	variants := []Output{
		p.Label("k2", 1, 0, 5), // key
		p.Label("k", 2, 0, 5),  // group index
		p.Label("k", 1, 1, 5),  // bit value
		p.Label("k", 1, 0, 6),  // counter
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d did not change the label", i)
		}
	}
}

func TestInjectiveEncoding(t *testing.T) {
	// Length-prefixing must prevent concatenation ambiguity:
	// ("ab","c") vs ("a","bc") style collisions on the raw key.
	p := NewRandom()
	if p.EncodeKey("ab") == p.EncodeKey("a\x00b") {
		t.Error("encoding is not injective across embedded separators")
	}
}

func TestQuickLabelUniqueAcrossCounters(t *testing.T) {
	p := NewRandom()
	f := func(key string, group uint8, bits uint8, ct uint32) bool {
		a := p.Label(key, int(group), bits&1, uint64(ct))
		b := p.Label(key, int(group), bits&1, uint64(ct)+1)
		return a != b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEncodeKeyInjectiveish(t *testing.T) {
	p := NewRandom()
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		return p.EncodeKey(a) != p.EncodeKey(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// katPRF is the known-answer vectors' generator: master key 00 01 … 1f,
// object "kat-object".
func katPRF(t *testing.T) *LabelGen {
	t.Helper()
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	p, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	return p.LabelGen("kat-object")
}

// TestLabelRowKnownAnswer pins the schedule layout: AES-128 under
// HMAC-SHA256(key, 05 ‖ le64(len) ‖ object)[:16], in CTR mode from the
// counter block ct ‖ domain ‖ bits ‖ group (big-endian). The vectors
// were computed with an independent AES-CTR implementation; the label
// row crosses the 2^32 group boundary.
func TestLabelRowKnownAnswer(t *testing.T) {
	gen := katPRF(t)
	for _, v := range []struct {
		name string
		row  Row
		n    int
		want string
	}{
		{"label bits=2 ct=0x0102030405060708 from group 2^32-2", gen.LabelRow(1<<32-2, 2, 0x0102030405060708), 3,
			"0425063b060057e070f5237ab50eeab3a8038b68421788eba14c313bef8ecfd236373730e5aecb7b8fba62713e149b6e"},
	} {
		got := make([]byte, v.n*Size)
		v.row.Fill(got)
		if hex.EncodeToString(got) != v.want {
			t.Errorf("%s: %x, want %s", v.name, got, v.want)
		}
	}
	if got := gen.Label(1<<32, 2, 0x0102030405060708).String(); got != "36373730e5aecb7b8fba62713e149b6e" {
		t.Errorf("single label = %s, want the row's third block", got)
	}
	if got := gen.PermuteBits(256, 5); got != 0x85 {
		t.Errorf("single permute word = %#x, want 0x85, the first byte of the permute block at group 256, ct 5", got)
	}
}

// TestLabelRowMatchesSingleBlocks: every block of a row equals Label at
// the same position — for start
// groups on and off 8-block boundaries, runs across byte carries of the
// group field, and rows read in fills of uneven lengths, so the CTR
// stream's eight-block path, its tail and its continuation across Fill
// calls all agree with the one-block path.
func TestLabelRowMatchesSingleBlocks(t *testing.T) {
	gen := NewRandom().LabelGen("obj")
	fills := []int{1, 7, 9, 3, 16, 2, 25}
	for _, g0 := range []int{0, 1, 5, 249, 65531, 1<<24 - 3, 1<<32 - 6, 1<<40 - 1} {
		for _, ct := range []uint64{0, 1, 0xFFFFFFFFFFFFFFFE} {
			labels := gen.LabelRow(g0, 3, ct)
			g := g0
			for _, n := range fills {
				lb := make([]byte, n*Size)
				labels.Fill(lb)
				for k := 0; k < n; k, g = k+1, g+1 {
					if want := gen.Label(g, 3, ct); !bytes.Equal(lb[k*Size:(k+1)*Size], want[:]) {
						t.Fatalf("label row from %d at ct %d: group %d is %x, Label gives %x", g0, ct, g, lb[k*Size:(k+1)*Size], want)
					}
				}
			}
		}
	}
}

// TestLabelRowsConcurrent: rows opened from one generator on many
// goroutines at once are independent — each reads the shared key
// schedule only. Run under -race this is the whole point.
func TestLabelRowsConcurrent(t *testing.T) {
	gen := NewRandom().LabelGen("obj")
	want := make([]byte, 64*Size)
	gen.LabelRow(3, 1, 9).Fill(want)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]byte, len(want))
			for i := 0; i < 50; i++ {
				gen.LabelRow(3, 1, 9).Fill(got)
				if !bytes.Equal(got, want) {
					t.Error("concurrently opened row diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestLabelZeroAllocs(t *testing.T) {
	p := NewRandom()
	gen := p.LabelGen("obj")
	if allocs := testing.AllocsPerRun(200, func() {
		gen.Label(5, 1, 42)
	}); allocs != 0 {
		t.Errorf("Label allocates %v times per op, want 0", allocs)
	}
}
