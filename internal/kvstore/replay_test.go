package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ortoa/internal/crashfs"
)

// buildWAL writes a log with the given mutations applied in order and
// returns its raw bytes plus the offset where each record starts (the
// first offset is len(magic)).
func buildWAL(t *testing.T, muts [][2]string) (raw []byte, offsets []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "build.wal")
	s := New()
	if err := s.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	sizeAt := func() int64 {
		if err := s.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	for _, m := range muts {
		offsets = append(offsets, sizeAt())
		if err := s.Put(m[0], []byte(m[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DetachWAL(); err != nil {
		t.Fatal(err)
	}
	var err error
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, offsets
}

// TestReplayEveryTornTailShape truncates a two-record log at every
// byte boundary inside the final record: each shape is exactly what a
// torn final write produces, and every one must be tolerated by
// keeping the valid prefix, truncating the damage, and appending
// cleanly afterwards.
func TestReplayEveryTornTailShape(t *testing.T) {
	raw, offsets := buildWAL(t, [][2]string{{"alpha", "first-value"}, {"beta", "second-value"}})
	last := offsets[1]
	for cut := last; cut < int64(len(raw)); cut++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(path, raw[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		s := New()
		if err := s.AttachWALOptions(path, WALOptions{}); err != nil {
			t.Fatalf("cut at %d rejected: %v", cut, err)
		}
		if v, err := s.Get("alpha"); err != nil || string(v) != "first-value" {
			t.Fatalf("cut at %d lost the complete record: %q, %v", cut, v, err)
		}
		if _, err := s.Get("beta"); err == nil {
			t.Fatalf("cut at %d replayed a torn record as complete", cut)
		}
		// Truncate-and-continue: the log accepts appends at the right
		// offset and replays them on the next attach.
		if err := s.Put("gamma", []byte("appended")); err != nil {
			t.Fatal(err)
		}
		if err := s.DetachWAL(); err != nil {
			t.Fatal(err)
		}
		r := New()
		if err := r.AttachWALOptions(path, WALOptions{}); err != nil {
			t.Fatalf("re-attach after cut %d: %v", cut, err)
		}
		if v, err := r.Get("gamma"); err != nil || string(v) != "appended" {
			t.Fatalf("cut at %d: post-truncation append lost: %q, %v", cut, v, err)
		}
		r.DetachWAL()
	}
}

// TestReplayMidFileCorruptionRejected flips a byte in the FIRST of two
// records: valid data follows the damage, so this cannot be a torn
// tail and replay must reject the log rather than resurrect stale
// state by skipping interior records.
func TestReplayMidFileCorruptionRejected(t *testing.T) {
	raw, offsets := buildWAL(t, [][2]string{{"alpha", "first-value"}, {"beta", "second-value"}})
	for _, off := range []int64{offsets[0], offsets[0] + 3, offsets[1] - 2} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xFF
		path := filepath.Join(t.TempDir(), "corrupt.wal")
		if err := os.WriteFile(path, mut, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := New().AttachWALOptions(path, WALOptions{}); err == nil {
			t.Errorf("corruption at offset %d (mid-file) accepted", off)
		}
	}
}

// TestReplayTornFinalOverwriteTolerated garbles the final record
// in-place without changing the length — the shape an interrupted
// in-place sector write leaves. Nothing follows it, so replay treats
// it as the torn tail.
func TestReplayTornFinalOverwriteTolerated(t *testing.T) {
	raw, offsets := buildWAL(t, [][2]string{{"alpha", "first-value"}, {"beta", "second-value"}})
	mut := append([]byte(nil), raw...)
	mut[offsets[1]+5] ^= 0xFF // inside the final record's key bytes
	path := filepath.Join(t.TempDir(), "torn.wal")
	if err := os.WriteFile(path, mut, 0o600); err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatalf("torn final overwrite rejected: %v", err)
	}
	defer s.DetachWAL()
	if _, err := s.Get("alpha"); err != nil {
		t.Error("record before torn tail lost")
	}
	if _, err := s.Get("beta"); err == nil {
		t.Error("garbled final record replayed")
	}
}

// TestReplayCrashfsShapes drives the journal through the crash model
// itself: seeded crashes with torn final writes produce organic
// crash-shaped logs, and every one must recover to a state where all
// fsynced writes are present and the log stays appendable.
func TestReplayCrashfsShapes(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		fsys := crashfs.New(&crashfs.Plan{Seed: seed, TornWriteProb: 0.8})
		s := New()
		if err := s.AttachWALOptions("crash.wal", WALOptions{FS: fsys}); err != nil {
			t.Fatal(err)
		}
		synced := 0
		for i := 0; i < 20; i++ {
			if err := s.Put(fmt.Sprintf("k%02d", i), []byte{byte(seed), byte(i)}); err != nil {
				t.Fatal(err)
			}
			if i == 9 {
				if err := s.SyncWAL(); err != nil {
					t.Fatal(err)
				}
				synced = 10
			}
			if i > 9 {
				// Flush to the file WITHOUT fsync: each record becomes
				// an unsynced write the crash model can drop or tear.
				s.wal.mu.Lock()
				if err := s.wal.w.Flush(); err != nil {
					s.wal.mu.Unlock()
					t.Fatal(err)
				}
				s.wal.mu.Unlock()
			}
		}
		fsys.Crash()

		r := New()
		if err := r.AttachWALOptions("crash.wal", WALOptions{FS: fsys}); err != nil {
			t.Fatalf("seed %d: crash-shaped log rejected: %v", seed, err)
		}
		// Everything synced must be back; the unsynced tail may be
		// partially present but only as a contiguous prefix of the
		// write order.
		for i := 0; i < synced; i++ {
			if _, err := r.Get(fmt.Sprintf("k%02d", i)); err != nil {
				t.Errorf("seed %d: fsynced k%02d lost", seed, i)
			}
		}
		present := synced
		for i := synced; i < 20; i++ {
			if _, err := r.Get(fmt.Sprintf("k%02d", i)); err == nil {
				present = i + 1
			}
		}
		for i := synced; i < present; i++ {
			if _, err := r.Get(fmt.Sprintf("k%02d", i)); err != nil {
				t.Errorf("seed %d: recovered tail has a hole at k%02d (replay reordered records)", seed, i)
			}
		}
		if err := r.Put("post", []byte("ok")); err != nil {
			t.Fatalf("seed %d: log not appendable after crash recovery: %v", seed, err)
		}
		if err := r.DetachWAL(); err != nil {
			t.Fatal(err)
		}
	}
}
