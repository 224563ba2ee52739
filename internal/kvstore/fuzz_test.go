package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ortoa/internal/crashfs"
)

// FuzzSnapshotRead: a checkpoint's snapshot may come back from a disk
// an attacker (or bitrot) touched; recovery's parse must fail cleanly.
func FuzzSnapshotRead(f *testing.F) {
	s := New()
	s.Put("seed", []byte("value"))
	f.Add(snapshotBytes(f, s))
	f.Add([]byte{})
	f.Add([]byte("ORTOAKV1garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		New().readSnapshot(bytes.NewReader(data)) //nolint:errcheck
	})
}

// FuzzWALReplay: WAL files survive crashes mid-write; arbitrary
// content must replay without panicking and leave the store usable.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	s := New()
	path := filepath.Join(dir, "seed.wal")
	if err := s.AttachWALOptions(path, WALOptions{}); err != nil {
		f.Fatal(err)
	}
	s.Put("k", []byte("v"))
	s.DetachWAL()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:len(seed)-1])
	// Organic crash shapes: journal through the crash model with torn
	// final writes and seed whatever each crash leaves on "disk".
	for cseed := uint64(0); cseed < 4; cseed++ {
		fsys := crashfs.New(&crashfs.Plan{Seed: cseed, TornWriteProb: 1})
		cs := New()
		if err := cs.AttachWALOptions("fuzz.wal", WALOptions{FS: fsys}); err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			cs.Put(fmt.Sprintf("crash-%d", i), bytes.Repeat([]byte{byte(i)}, 32))
		}
		cs.SyncWAL()
		cs.Put("tail", []byte("unsynced"))
		cs.wal.mu.Lock()
		cs.wal.w.Flush() //nolint:errcheck // fuzz seeding only
		cs.wal.mu.Unlock()
		fsys.Crash()
		if shaped, ok := fsys.ReadFileDurable("fuzz.wal"); ok {
			f.Add(shaped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(p, data, 0o600); err != nil {
			t.Skip()
		}
		st := New()
		if err := st.AttachWALOptions(p, WALOptions{}); err != nil {
			return // rejected cleanly
		}
		// Store must remain usable after arbitrary replay.
		st.Put("post", []byte("ok"))
		if v, err := st.Get("post"); err != nil || string(v) != "ok" {
			t.Fatalf("store unusable after replay: %v %v", v, err)
		}
		st.DetachWAL()
	})
}
