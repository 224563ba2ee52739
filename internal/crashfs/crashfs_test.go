package crashfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	fspkg "io/fs"
	"os"
	"testing"

	"ortoa/internal/vfs"
)

func writeAll(t *testing.T, f vfs.File, data []byte) {
	t.Helper()
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}

func TestCrashDropsUnsyncedData(t *testing.T) {
	f := New(nil)
	h, err := f.OpenFile("dir/a", os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, h, []byte("synced"))
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncDir("dir"); err != nil {
		t.Fatal(err)
	}
	writeAll(t, h, []byte("-unsynced"))
	f.Crash()

	if _, err := h.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Errorf("stale handle write = %v, want ErrCrashed", err)
	}
	got, err := f.ReadFile("dir/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("synced")) {
		t.Errorf("post-crash content = %q, want %q", got, "synced")
	}
}

func TestSyncMakesContentDurable(t *testing.T) {
	f := New(nil)
	h, _ := f.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	writeAll(t, h, []byte("hello"))
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	f.SyncDir(".")
	f.Crash()
	got, err := f.ReadFile("a")
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Errorf("synced content lost: %q, %v", got, err)
	}
}

func TestUnsyncedCreationVanishes(t *testing.T) {
	f := New(nil)
	h, _ := f.OpenFile("ghost", os.O_RDWR|os.O_CREATE, 0o600)
	writeAll(t, h, []byte("data"))
	h.Sync() // content synced, but the directory entry is not
	f.Crash()
	if _, err := f.ReadFile("ghost"); !errors.Is(err, fspkg.ErrNotExist) {
		t.Errorf("unsynced creation survived crash: %v", err)
	}
}

func TestRenameVolatileUntilSyncDir(t *testing.T) {
	f := New(nil)
	h, _ := f.OpenFile("old", os.O_RDWR|os.O_CREATE, 0o600)
	writeAll(t, h, []byte("v"))
	h.Sync()
	f.SyncDir(".")

	if err := f.Rename("old", "new"); err != nil {
		t.Fatal(err)
	}
	f.Crash()
	if _, err := f.ReadFile("old"); err != nil {
		t.Error("un-fsynced rename lost the old entry")
	}
	if _, err := f.ReadFile("new"); err == nil {
		t.Error("un-fsynced rename survived crash")
	}

	// Again, but durable this time.
	if err := f.Rename("old", "new"); err != nil {
		t.Fatal(err)
	}
	f.SyncDir(".")
	f.Crash()
	if _, err := f.ReadFile("new"); err != nil {
		t.Error("fsynced rename lost")
	}
	if _, err := f.ReadFile("old"); err == nil {
		t.Error("fsynced rename resurrected the old entry")
	}
}

func TestRemoveResurrectedWithoutSyncDir(t *testing.T) {
	f := New(nil)
	h, _ := f.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	writeAll(t, h, []byte("v"))
	h.Sync()
	f.SyncDir(".")
	if err := f.Remove("a"); err != nil {
		t.Fatal(err)
	}
	f.Crash()
	if _, err := f.ReadFile("a"); err != nil {
		t.Error("removal without dir fsync was durable")
	}
}

func TestTornWriteSeeded(t *testing.T) {
	// With TornWriteProb 1 and a pending write, some seed must produce
	// a strict prefix of the unsynced write.
	torn := false
	for seed := uint64(0); seed < 32 && !torn; seed++ {
		f := New(&Plan{Seed: seed, TornWriteProb: 1})
		h, _ := f.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
		h.Sync()
		f.SyncDir(".")
		writeAll(t, h, []byte("0123456789"))
		f.Crash()
		got, err := f.ReadFile("a")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > 0 && len(got) < 10 {
			if !bytes.Equal(got, []byte("0123456789")[:len(got)]) {
				t.Fatalf("torn write is not a prefix: %q", got)
			}
			torn = true
		}
	}
	if !torn {
		t.Error("no seed in 0..31 produced a torn write with TornWriteProb=1")
	}
}

func TestInjectedErrors(t *testing.T) {
	f := New(&Plan{Seed: 7, WriteErrProb: 1})
	h, _ := f.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	fails := 0
	for i := 0; i < 5; i++ {
		if _, err := h.Write([]byte("x")); err != nil {
			fails++
		}
	}
	if fails != 5 {
		t.Errorf("injected %d write errors, want 5", fails)
	}
	if f.Stats().WriteErrs != 5 {
		t.Errorf("Stats.WriteErrs = %d", f.Stats().WriteErrs)
	}
}

func TestInjectedSyncErrorLeavesDurableContent(t *testing.T) {
	f := New(nil)
	h, _ := f.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	writeAll(t, h, []byte("old"))
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	f.SyncDir(".")
	f.SetPlan(&Plan{Seed: 7, SyncErrProb: 1})
	writeAll(t, h, []byte("-new"))
	if err := h.Sync(); err == nil {
		t.Fatal("Sync succeeded under SyncErrProb 1")
	}
	if f.Stats().SyncErrs != 1 {
		t.Errorf("Stats.SyncErrs = %d, want 1", f.Stats().SyncErrs)
	}
	if got, ok := f.ReadFileDurable("a"); !ok || !bytes.Equal(got, []byte("old")) {
		t.Errorf("durable content after failed fsync = %q, %v; want %q", got, ok, "old")
	}
	if got, _ := f.ReadFile("a"); !bytes.Equal(got, []byte("old-new")) {
		t.Errorf("live content = %q, want %q", got, "old-new")
	}
}

func TestSeekReadTruncate(t *testing.T) {
	f := New(nil)
	h, _ := f.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o600)
	writeAll(t, h, []byte("0123456789"))
	if _, err := h.Seek(2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := io.ReadFull(h, buf); err != nil || string(buf) != "234" {
		t.Errorf("read after seek = %q, %v", buf, err)
	}
	if err := h.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.Size(); n != 4 {
		t.Errorf("size after truncate = %d", n)
	}
	// Seek relative to the (shrunk) end.
	if pos, err := h.Seek(-1, io.SeekEnd); err != nil || pos != 3 {
		t.Errorf("SeekEnd = %d, %v", pos, err)
	}
}

func TestWriteFileAtomicSurvivesCrashOnlyAfterCompletion(t *testing.T) {
	f := New(nil)
	if err := vfs.WriteFileAtomic(f, "dir/cfg", func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	f.Crash()
	got, err := f.ReadFile("dir/cfg")
	if err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("atomic write lost in crash: %q, %v", got, err)
	}

	// A second save that crashes before the rename leaves v1 intact.
	h, err := f.OpenFile("dir/cfg.tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, h, []byte("v2-partial"))
	f.Crash()
	got, err = f.ReadFile("dir/cfg")
	if err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("old content damaged by crashed save: %q, %v", got, err)
	}
}

func TestCrashStatsCount(t *testing.T) {
	f := New(nil)
	for i := 0; i < 3; i++ {
		h, _ := f.OpenFile(fmt.Sprintf("f%d", i), os.O_RDWR|os.O_CREATE, 0o600)
		writeAll(t, h, []byte("x"))
	}
	f.Crash()
	st := f.Stats()
	if st.Crashes != 1 {
		t.Errorf("Crashes = %d", st.Crashes)
	}
	if st.DroppedOps != 3 {
		t.Errorf("DroppedOps = %d, want 3 unsynced creations", st.DroppedOps)
	}
}
