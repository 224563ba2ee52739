package core

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"ortoa/internal/crypto/prf"
)

// permuteBuild is one point-and-permute build's outputs: the table
// entries of groups [g0, g1) and the whole schedule it leaves.
type permuteBuild struct {
	table, news, olds []byte
}

// permuteRun builds groups [g0, g1) of op's table for key at counter ct
// through the fused kernel (kernel) or the portable path, and reports
// false where the kernel was asked for and does not run.
func permuteRun(p *LBLProxy, kernel bool, op Op, key string, value []byte, ct uint64, g0, g1 int) (permuteBuild, bool) {
	s := p.spec(op, key, value, ct)
	table := make([]byte, (g1-g0)*p.cfg.groupBytes())
	gen := p.prf.LabelGen(key)
	if kernel {
		if !p.permuteKernel(table, gen, &s, g0, g1, g0, keepMask(op)) {
			return permuteBuild{}, false
		}
	} else {
		p.buildPermuteRange(table, gen, &s, g0, g1, g0, keepMask(op))
	}
	return permuteBuild{table, s.news, s.olds}, true
}

// diffPermute reports the first part in which got differs from want.
func diffPermute(t *testing.T, what string, got, want permuteBuild) {
	t.Helper()
	for _, part := range []struct {
		name      string
		got, want []byte
	}{{"table", got.table, want.table}, {"news", got.news, want.news}, {"olds", got.olds, want.olds}} {
		if !bytes.Equal(part.got, part.want) {
			for i := range part.got {
				if part.got[i] != part.want[i] {
					t.Fatalf("%s: %s differs first at byte %d: %#x, want %#x", what, part.name, i, part.got[i], part.want[i])
				}
			}
		}
	}
}

// TestPermuteBuildParity holds secretbox's fused point-and-permute
// kernel to the portable build it stands in for — prf rows, paint and
// PadGroup (buildPermuteRange) — byte for byte: the table entries, the
// new labels carried in s.news, the old bits in s.olds. Runs of one to
// seven groups start at offsets that are multiples of none of 2, 4 and
// 32, for reads and writes of random values, under keys and counters
// enough that every colour r occurs; a run of one group takes only the
// kernel's first and last steps, a longer one its pipelined loop. Then
// whole tables, built through buildGroups on one to three workers
// and through buildFrame cut into frames, must equal the portable build
// of the whole table. Where no kernel runs (the purego tag, a CPU
// without AES-NI) the run rows are skipped and the rest holds the
// portable path to itself.
func TestPermuteBuildParity(t *testing.T) {
	cfg := LBLConfig{ValueSize: 64, Mode: LBLPointPermute}
	p, err := NewLBLProxy(cfg, goldenPRF(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := cfg.Groups()
	rnd := rand.New(rand.NewPCG(5, 50))
	value := make([]byte, cfg.ValueSize)
	for i := range value {
		value[i] = byte(rnd.Uint32())
	}
	keys, cts := []string{"k0", "k1", "k2"}, []uint64{0, 7, 1<<40 - 1}

	var colours [4]int
	kernel := true
	for _, key := range keys {
		for _, ct := range cts {
			for _, op := range []Op{OpRead, OpWrite} {
				for n := 1; n <= 7; n++ {
					for _, g0 := range []int{1, 3, 5, 7, 35, 67, 99, groups - 7} {
						got, ok := permuteRun(p, true, op, key, value, ct, g0, g0+n)
						if !ok {
							kernel = false
							break
						}
						want, _ := permuteRun(p, false, op, key, value, ct, g0, g0+n)
						diffPermute(t, key+" "+op.String()+" run", got, want)
						for g := g0; g < g0+n; g++ {
							colours[want.olds[4*g]]++ // entry 0 is keyed by the bits 0 ⊕ r
						}
					}
				}
			}
		}
	}
	if !kernel {
		t.Log("no point-and-permute kernel in this build or on this CPU: its runs are skipped")
	} else if colours[0] == 0 || colours[1] == 0 || colours[2] == 0 || colours[3] == 0 {
		t.Errorf("colours r over the runs: %v, want each of 0–3", colours)
	}

	for _, op := range []Op{OpRead, OpWrite} {
		want, _ := permuteRun(p, false, op, "k0", value, 7, 0, groups)
		for _, workers := range []int{1, 2, 3} {
			s := p.spec(op, "k0", value, 7)
			table := make([]byte, len(want.table))
			if err := p.buildGroups(table, &s, 0, groups, workers); err != nil {
				t.Fatal(err)
			}
			diffPermute(t, op.String()+" on workers", permuteBuild{table, s.news, s.olds}, want)
		}
		s := p.spec(op, "k0", value, 7)
		var table []byte
		for _, cut := range [][2]int{{0, 3}, {3, 4}, {4, 37}, {37, 38}, {38, groups - 5}, {groups - 5, groups}} {
			runs := []run{{seg: 0, g0: cut[0], g1: cut[1]}}
			frame := make([]byte, cfg.frameBytes(runs))
			if err := p.buildFrame(frame, runs, []tableSpec{s}); err != nil {
				t.Fatal(err)
			}
			if cut[0] == 0 {
				frame = frame[cfg.segPrefixLen():]
			}
			table = append(table, frame...)
		}
		diffPermute(t, op.String()+" cut into frames", permuteBuild{table, s.news, s.olds}, want)
	}
}

// FuzzPermuteBuildParity is TestPermuteBuildParity's run rows over
// generated runs: the input picks the key, the counter, the operation,
// the value and the run, and the kernel's build must be the portable
// one's byte for byte. It skips where no kernel runs.
func FuzzPermuteBuildParity(f *testing.F) {
	cfg := LBLConfig{ValueSize: 16, Mode: LBLPointPermute}
	p, err := NewLBLProxy(cfg, goldenPRF(f), nil)
	if err != nil {
		f.Fatal(err)
	}
	groups := cfg.Groups()
	f.Add([]byte("k"), uint64(0), true, uint8(0), uint8(1), []byte{0xff})
	f.Add([]byte("obj"), uint64(9), false, uint8(3), uint8(7), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{}, ^uint64(0), false, uint8(60), uint8(4), []byte("value"))
	f.Fuzz(func(t *testing.T, key []byte, ct uint64, read bool, start, length uint8, data []byte) {
		value := make([]byte, cfg.ValueSize)
		copy(value, data)
		g0 := int(start) % groups
		g1 := g0 + 1 + int(length)%(groups-g0)
		op := OpWrite
		if read {
			op = OpRead
		}
		got, ok := permuteRun(p, true, op, string(key), value, ct, g0, g1)
		if !ok {
			t.Skip("no point-and-permute kernel in this build or on this CPU")
		}
		want, _ := permuteRun(p, false, op, string(key), value, ct, g0, g1)
		diffPermute(t, "fuzzed run", got, want)
	})
}

// TestPermuteBuildTakesNoShuffleSource: point-and-permute places every
// entry by its key's colour, so a build fanned out over two workers
// allocates nothing for shuffling — no seed, stream or shuffler per
// worker. It pins that at 2,048 groups (a 512 B value): two workers
// allocate the label generator once, the fan-out's own cost (ForEach),
// and what each worker opens for its range — nothing through the kernel,
// its rows and sealer on the portable path — which the inline build
// shows as what it allocates beyond the generator.
func TestPermuteBuildTakesNoShuffleSource(t *testing.T) {
	cfg := LBLConfig{ValueSize: 512, Mode: LBLPointPermute}
	p, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
	if err != nil {
		t.Fatal(err)
	}
	table := make([]byte, cfg.Groups()*cfg.groupBytes())
	s := p.spec(OpWrite, "k", make([]byte, cfg.ValueSize), 0)
	build := func(workers int) float64 {
		return testing.AllocsPerRun(50, func() {
			s.ct++
			binary.LittleEndian.PutUint64(s.value, s.ct)
			if err := p.buildGroups(table, &s, 0, cfg.Groups(), workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	gen := testing.AllocsPerRun(50, func() { p.prf.LabelGen("k") })
	// The fan-out's own cost: ForEach over a closure that captures, as
	// buildGroups's does.
	fan := testing.AllocsPerRun(50, func() {
		_ = ForEach(2, 2, func(i int) error { table[i] = 0; return nil })
	})
	inline, two := build(1), build(2)
	if want := gen + fan + 2*(inline-gen); two != want {
		t.Errorf("a 2-worker build allocates %v times, want %v: the generator's %v, the fan-out's %v and twice a worker's %v",
			two, want, gen, fan, inline-gen)
	}
}
