package core

import (
	"crypto/rand"
	"fmt"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/wire"
)

// This file implements the Ideal-world simulators of the paper's
// ROR-RW security analysis (§7, §11). A simulator sees only the key of
// each access — never the operation type or the value — and emits a
// server-bound message. ROR-RW security says the real protocol's
// transcripts are computationally indistinguishable from the
// simulator's; the testable projection of that claim (exercised in
// sim_test.go) is that real read transcripts, real write transcripts,
// and simulated transcripts are structurally identical: same message
// count, same sizes, same framing.

// An LBLSimulator is the §11.2 simulator (Figure 7): it keeps one
// random "old label" per group per key and, per access, emits one
// valid encryption (a fresh random label under the stored old label)
// and 2^y−1 encryptions of zeros under fresh random labels, shuffled.
type LBLSimulator struct {
	cfg   LBLConfig
	state map[string][][]byte // key → stored per-group labels
}

// NewLBLSimulator returns a simulator for cfg.
func NewLBLSimulator(cfg LBLConfig) (*LBLSimulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &LBLSimulator{cfg: cfg, state: make(map[string][][]byte)}, nil
}

func randomLabel() ([]byte, error) {
	l := make([]byte, prf.Size)
	if _, err := rand.Read(l); err != nil {
		return nil, err
	}
	return l, nil
}

// labelState returns (creating on first use) the simulator's stored
// per-group labels for key.
func (s *LBLSimulator) labelState(key string) ([][]byte, error) {
	if labels, ok := s.state[key]; ok {
		return labels, nil
	}
	labels := make([][]byte, s.cfg.Groups())
	for g := range labels {
		l, err := randomLabel()
		if err != nil {
			return nil, err
		}
		labels[g] = l
	}
	s.state[key] = labels
	return labels, nil
}

// Simulate produces the server-bound frames of one access round over
// keys, shaped exactly like the real proxy's request — one segment per
// key, cut into frames by the same rule — from dummy values only. The
// ROR-RW projection holds frame by frame: real read requests, real
// write requests, and simulated requests have identical frame counts,
// per-frame lengths, and segment headers. A key named more than once is
// a chain here as it is on the wire: the simulator's stored labels move
// group by group as it goes, so each of the key's segments is sealed
// under the labels the one before it installed — the order the server
// applies them in.
func (s *LBLSimulator) Simulate(keys ...string) ([][]byte, error) {
	cfg := s.cfg
	nEntries := cfg.Mode.entries()
	entryLen := cfg.Mode.entryLen()
	plainLen := cfg.Mode.entryPlainLen()

	// Scratch shared across groups: the valid entry's plaintext, one
	// junk-key buffer, the all-zeros junk plaintext, and the slot
	// permutation. Entries are sealed directly into the frame at
	// permuted slots, mirroring the real proxy's build — per group only
	// the retained new label allocates.
	shuf := newCryptoShuffler()
	sealer := secretbox.NewLabelSealer()
	plain := make([]byte, plainLen)
	junkKey := make([]byte, prf.Size)
	zeroPlain := make([]byte, plainLen)
	var perm [maxEntries]int

	var frames [][]byte
	var runs []run
	for cut := (frameCutter{cfg: cfg, n: len(keys)}); !cut.done(); {
		runs = cut.next(runs[:0])
		frame := make([]byte, cfg.frameBytes(runs))
		frames = append(frames, frame)
		for _, r := range runs {
			key := keys[r.seg]
			labels, err := s.labelState(key)
			if err != nil {
				return nil, err
			}
			if r.g0 == 0 {
				// The simulator does not know the PRF key; a random encoded
				// key of the right size stands in (the adversary sees PRF
				// outputs either way). It does know the key, so it stamps the
				// key's range — routing data, the same datum sharded
				// deployments already reveal by which server a request
				// reaches — under the single-proxy epoch 0. The claim is
				// fixed-width, so simulated and real frames are structurally
				// identical whatever the epoch.
				ek, err := randomLabel()
				if err != nil {
					return nil, err
				}
				frame = frame[cfg.putSegHeader(frame, ek, RangeOf(key), 0):]
			}
			for g := r.g0; g < r.g1; g++ {
				nl, err := randomLabel()
				if err != nil {
					return nil, err
				}
				// Like the real proxy's step 1.5, the simulator's entry
				// order must be cryptographically unpredictable — the single
				// openable entry is generated first, so a guessable
				// placement would distinguish simulated transcripts.
				shuf.perm(nEntries, perm[:])
				slots := frame[:nEntries*entryLen]
				frame = frame[nEntries*entryLen:]
				// One valid entry: Enc_{ol}(nl ‖ pad).
				copy(plain, nl)
				if err := sealer.SealInto(slots[perm[0]*entryLen:(perm[0]+1)*entryLen], labels[g], plain); err != nil {
					return nil, err
				}
				// 2^y − 1 entries of zeros under fresh labels the server
				// cannot open.
				for e := 1; e < nEntries; e++ {
					if _, err := rand.Read(junkKey); err != nil {
						return nil, err
					}
					slot := perm[e]
					if err := sealer.SealInto(slots[slot*entryLen:(slot+1)*entryLen], junkKey, zeroPlain); err != nil {
						return nil, err
					}
				}
				// The simulator's server now stores the new label.
				labels[g] = nl
			}
		}
	}
	return frames, nil
}

// A TEESimulator emits TEE-ORTOA-shaped requests from dummy values
// (§11.1): an encryption of a dummy selector and a dummy value under
// an unrelated key.
type TEESimulator struct {
	cfg TEEConfig
	box *secretbox.Box
}

// NewTEESimulator returns a simulator for cfg.
func NewTEESimulator(cfg TEEConfig) (*TEESimulator, error) {
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("core: TEE simulator value size %d", cfg.ValueSize)
	}
	box, err := secretbox.NewBox(secretbox.NewRandomKey())
	if err != nil {
		return nil, err
	}
	return &TEESimulator{cfg: cfg, box: box}, nil
}

// Simulate produces a server-bound access message for key.
func (s *TEESimulator) Simulate(key string) ([]byte, error) {
	ek := make([]byte, prf.Size)
	if _, err := rand.Read(ek); err != nil {
		return nil, err
	}
	dummy := make([]byte, s.cfg.ValueSize)
	if _, err := rand.Read(dummy); err != nil {
		return nil, err
	}
	w := wire.NewWriter(prf.Size + 2*s.cfg.ValueSize)
	w.Raw(ek)
	w.BytesPfx(s.box.Seal([]byte{0}))
	w.BytesPfx(s.box.Seal(dummy))
	return w.Bytes(), nil
}
