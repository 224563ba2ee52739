package core

import (
	"bytes"
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
// random "old label" per group per key and a random verifier per key
// and, per access, emits the stored verifier and a fresh one, and per
// group one valid encryption (a fresh random label under the stored old
// label) and 2^y−1 encryptions of zeros under fresh random labels, the
// valid one at a uniformly drawn slot — or, under point-and-permute, at
// the slot its key's colour names, as the real proxy places it.
type LBLSimulator struct {
	cfg   LBLConfig
	state map[string]*simRecord
}

// A simRecord is what the simulator's server holds for one key.
type simRecord struct {
	labels   [][]byte // per group
	verifier []byte
}

// NewLBLSimulator returns a simulator for cfg.
func NewLBLSimulator(cfg LBLConfig) (*LBLSimulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &LBLSimulator{cfg: cfg, state: make(map[string]*simRecord)}, nil
}

func randomLabel() ([]byte, error) {
	l := make([]byte, prf.Size)
	if _, err := rand.Read(l); err != nil {
		return nil, err
	}
	return l, nil
}

// record returns (creating on first use) the simulator's stored record
// for key.
func (s *LBLSimulator) record(key string) (*simRecord, error) {
	if rec, ok := s.state[key]; ok {
		return rec, nil
	}
	rec := &simRecord{labels: make([][]byte, s.cfg.Groups())}
	for g := range rec.labels {
		l, err := randomLabel()
		if err != nil {
			return nil, err
		}
		rec.labels[g] = l
	}
	v, err := randomLabel()
	if err != nil {
		return nil, err
	}
	rec.verifier = v
	s.state[key] = rec
	return rec, nil
}

// Simulate produces the server-bound frames of one access round over
// keys, shaped exactly like the real proxy's request — one segment per
// key, cut into frames by the same rule — from dummy values only. The
// ROR-RW projection holds frame by frame: real read requests, real
// write requests, and simulated requests have identical frame counts,
// per-frame lengths, and segment headers. A key named more than once is
// a chain here as it is on the wire: the simulator's stored record moves
// as it goes, so each of the key's segments expects the verifier and is
// sealed under the labels the one before it installed — the order the
// server applies them in.
func (s *LBLSimulator) Simulate(keys ...string) ([][]byte, error) {
	cfg := s.cfg
	mode := cfg.Mode
	nEntries := mode.entries()
	entryLen := mode.entryLen()

	// Scratch shared across groups: one junk-key buffer and the all-zeros
	// junk plaintext. Entries are sealed directly into the frame, as the
	// real proxy's build does — per group only the retained new label
	// allocates.
	shuf := newCryptoShuffler()
	sealer := secretbox.NewLabelSealer()
	junkKey := make([]byte, prf.Size)
	zeroPlain := make([]byte, prf.Size)

	var frames [][]byte
	var runs []run
	for cut := (frameCutter{cfg: cfg, n: len(keys)}); !cut.done(); {
		runs = cut.next(runs[:0])
		frame := make([]byte, cfg.frameBytes(runs))
		frames = append(frames, frame)
		for _, r := range runs {
			key := keys[r.seg]
			rec, err := s.record(key)
			if err != nil {
				return nil, err
			}
			if r.g0 == 0 {
				// The simulator does not know the PRF key; a random encoded
				// key of the right size stands in (the adversary sees PRF
				// outputs either way).
				ek, err := randomLabel()
				if err != nil {
					return nil, err
				}
				frame = frame[cfg.putSegHeader(frame, ek):]
				// The verifier pair: the one the simulator's server holds and
				// a fresh one it will.
				copy(frame, rec.verifier)
				if _, err := rand.Read(frame[verifierLen : 2*verifierLen]); err != nil {
					return nil, err
				}
				rec.verifier = bytes.Clone(frame[verifierLen : 2*verifierLen])
				frame = frame[2*verifierLen:]
			}
			for g := r.g0; g < r.g1; g++ {
				nl, err := randomLabel()
				if err != nil {
					return nil, err
				}
				// Like the real proxy's step 1.5, the simulator's placement of
				// the one openable entry must be cryptographically
				// unpredictable, or it would distinguish simulated
				// transcripts; under point-and-permute the stored label's
				// colour, uniform as the real one is, names it.
				valid := shuf.intN(nEntries)
				if mode.permute() {
					valid = int(rec.labels[g][0] & mode.colourMask())
				}
				slots := frame[:nEntries*entryLen]
				frame = frame[nEntries*entryLen:]
				for e := 0; e < nEntries; e++ {
					// One valid entry, Enc_{ol}(nl), and 2^y − 1 entries of
					// zeros under fresh labels the server cannot open.
					key, plain := rec.labels[g], nl
					if e != valid {
						if _, err := rand.Read(junkKey); err != nil {
							return nil, err
						}
						key, plain = junkKey, zeroPlain
					}
					if err := mode.seal(&sealer, slots[e*entryLen:(e+1)*entryLen], key, plain); err != nil {
						return nil, err
					}
				}
				// The simulator's server now stores the new label.
				rec.labels[g] = nl
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
