package core

import (
	"bytes"
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
)

// applyTable runs the server half of one access to key at counter 0
// directly against a fresh store seeded with record, the table's entries
// behind p's header and verifier pair, returning the response slot's body
// and the post-access stored record.
func applyTable(t *testing.T, p *LBLProxy, key string, record, table []byte) (body, newRec []byte) {
	t.Helper()
	cfg := p.cfg
	ek := p.prf.EncodeKey(key)
	store := kvstore.New()
	if err := store.Put(string(ek[:]), append([]byte(nil), record...)); err != nil {
		t.Fatal(err)
	}
	req := make([]byte, cfg.segPrefixLen(), cfg.RequestBytesPerAccess())
	n := cfg.putSegHeader(req, ek[:])
	p.vk.seal(req[n:], ek, 0)
	p.vk.seal(req[n+verifierLen:], ek, 1)
	resp, err := NewLBLServer(store).handleAccess(context.Background(), append(req, table[:cfg.Groups()*cfg.groupBytes()]...))
	if err != nil {
		t.Fatal(err)
	}
	if err := slotError(resp[0]); err != nil {
		t.Fatal(err)
	}
	body = resp[1:]
	newRec, err = store.Get(string(ek[:]))
	if err != nil {
		t.Fatal(err)
	}
	return body, newRec
}

// A table built with a worker pool must be exactly as applicable as a
// sequential one: applied to identical server state, both installs end
// at the identical record (the new-label schedule is deterministic) and
// answer with the same digest, and each recovers to the written value
// from its own schedule — the cross-check that parallel sealing writes
// every slot, and every old-bits entry, of every worker's range
// correctly. The fields may differ: outside point-and-permute they name
// slots each build shuffled on its own.
func TestParallelBuildMatchesSequential(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := LBLConfig{ValueSize: 64, Mode: mode}
			proxy, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
			if err != nil {
				t.Fatal(err)
			}
			value := make([]byte, cfg.ValueSize)
			rnd := rand.New(rand.NewPCG(1, 2))
			for i := range value {
				value[i] = byte(rnd.Uint32())
			}
			_, rec, err := proxy.BuildRecord("obj", value)
			if err != nil {
				t.Fatal(err)
			}

			newValue := make([]byte, cfg.ValueSize)
			for i := range newValue {
				newValue[i] = byte(rnd.Uint32())
			}
			seq := make([]byte, cfg.TableBytes())
			par := make([]byte, cfg.TableBytes())
			seqSpec, parSpec := proxy.spec(OpWrite, "obj", newValue, 0), proxy.spec(OpWrite, "obj", newValue, 0)
			if err := proxy.buildGroups(seq, &seqSpec, 0, cfg.Groups(), 1); err != nil {
				t.Fatal(err)
			}
			if err := proxy.buildGroups(par, &parSpec, 0, cfg.Groups(), 4); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seqSpec.news, parSpec.news) {
				t.Error("carried schedules diverge after sequential vs parallel build")
			}

			seqBody, seqRec := applyTable(t, proxy, "obj", rec, seq)
			parBody, parRec := applyTable(t, proxy, "obj", rec, par)
			if !bytes.Equal(seqRec, parRec) {
				t.Error("stored records diverge after sequential vs parallel table")
			}
			if !bytes.Equal(seqBody[cfg.ValueSize:], parBody[cfg.ValueSize:]) {
				t.Error("response digests diverge")
			}
			for _, c := range []struct {
				name string
				spec *tableSpec
				body []byte
			}{{"sequential", &seqSpec, seqBody}, {"parallel", &parSpec, parBody}} {
				got, err := proxy.recoverSlot(OpWrite, newValue, c.spec, c.body)
				if err != nil {
					t.Fatalf("recover the %s build: %v", c.name, err)
				}
				if !bytes.Equal(got, newValue) {
					t.Errorf("recover the %s build = %x, want %x", c.name, got, newValue)
				}
			}
		})
	}
}

// Each worker's shuffle lane must still place entries uniformly: in
// basic mode the bit-0 entry is generated first, so any placement bias
// would leak plaintext bits by table position (§5.2 step 1.5). Locate
// the bit-0 entry in every group of many parallel-built tables and
// check both slots are hit evenly — across the table, i.e. in every
// worker's range.
func TestParallelBuildShuffleUniform(t *testing.T) {
	cfg := LBLConfig{ValueSize: 16, Mode: LBLBasic} // 128 groups
	proxy, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := proxy.prf.LabelGen("obj")
	table := make([]byte, cfg.TableBytes())
	entryLen := cfg.Mode.entryLen()
	groups := cfg.Groups()

	const rounds = 200
	slot0 := 0
	perWorkerSlot0 := [4]int{}
	sealer := secretbox.NewLabelSealer()
	var plain [prf.Size]byte
	for ct := uint64(0); ct < rounds; ct++ {
		spec := proxy.spec(OpRead, "obj", nil, ct)
		if err := proxy.buildGroups(table, &spec, 0, groups, 4); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < groups; g++ {
			old0 := gen.Label(g, 0, ct)
			e0 := table[g*2*entryLen : g*2*entryLen+entryLen]
			opener, err := sealer.Opener(old0[:])
			if err != nil {
				t.Fatal(err)
			}
			if opener.OpenInto(plain[:], e0) == nil {
				slot0++
				perWorkerSlot0[g*4/groups]++
			}
		}
	}
	total := rounds * groups
	frac := float64(slot0) / float64(total)
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("bit-0 entry in slot 0 fraction = %.4f over %d samples, want ~0.5", frac, total)
	}
	// And per worker lane (groups/4 ranges): no lane may be degenerate.
	perLane := rounds * groups / 4
	for lane, n := range perWorkerSlot0 {
		lf := float64(n) / float64(perLane)
		if lf < 0.42 || lf > 0.58 {
			t.Errorf("worker lane %d slot-0 fraction = %.4f, want ~0.5", lane, lf)
		}
	}
}

// End-to-end accesses with the worker pool engaged (GOMAXPROCS raised
// so tableWorkers fans out): values must round-trip exactly as in the
// sequential configuration. Run under -race this also checks the build
// goroutines share no state.
func TestAccessEndToEndWithWorkerPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, mode := range []LBLMode{LBLBasic, LBLPointPermute} {
		t.Run(mode.String(), func(t *testing.T) {
			// 64 B basic → 512 groups → 2 build workers per table.
			r, proxy, _ := newLBL(t, mode, 64)
			v0 := bytes.Repeat([]byte{0x5A}, 64)
			loadData(t, r, proxy, map[string][]byte{"k": v0})
			got, _, err := proxy.Access(OpRead, "k", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, v0) {
				t.Errorf("read = %x, want %x", got, v0)
			}
			v1 := bytes.Repeat([]byte{0xC3}, 64)
			if _, _, err := proxy.Access(OpWrite, "k", v1); err != nil {
				t.Fatal(err)
			}
			got, _, err = proxy.Access(OpRead, "k", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, v1) {
				t.Errorf("read after write = %x, want %x", got, v1)
			}
		})
	}
}

// The batched path with inner workers engaged: batch of few keys on a
// many-core setting multiplies inner fan-out.
func TestAccessBatchWithInnerWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	r, proxy, _ := newLBL(t, LBLBasic, 64)
	data := map[string][]byte{
		"a": bytes.Repeat([]byte{1}, 64),
		"b": bytes.Repeat([]byte{2}, 64),
	}
	loadData(t, r, proxy, data)
	ops := []BatchOp{
		{Op: OpRead, Key: "a"},
		{Op: OpWrite, Key: "b", Value: bytes.Repeat([]byte{9}, 64)},
		{Op: OpRead, Key: "b"},
	}
	vals, _, err := proxy.AccessBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vals[0], data["a"]) {
		t.Errorf("batch read a = %x", vals[0])
	}
	if !bytes.Equal(vals[2], bytes.Repeat([]byte{9}, 64)) {
		t.Errorf("batch read-after-write b = %x", vals[2])
	}
}

// The sequential (workers<=1) build path is the per-access hot path on
// small tables. What it allocates — the label generator, the shuffler,
// the sealer, each schedule row's stream and one chunk buffer — is fixed
// per access: it must not grow with the table, so a build allocates as
// many times at 16 B as at 4 KiB in every mode. A row stream opened per
// chunk, or any per-group or per-entry garbage, breaks the equality.
func TestSequentialBuildAllocBudget(t *testing.T) {
	for _, mode := range allLBLModes() {
		var allocs [2]float64
		for i, size := range []int{16, 4096} {
			k, err := NewTableBuildKernel(LBLConfig{ValueSize: size, Mode: mode}, 1)
			if err != nil {
				t.Fatal(err)
			}
			k.Op() // warm
			allocs[i] = testing.AllocsPerRun(20, func() {
				if err := k.Op(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%v: sequential table build allocates %v times at 16 B and %v at 4 KiB, want the same", mode, allocs[0], allocs[1])
		}
	}
}
