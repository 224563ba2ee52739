package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

func TestWALReplayAfterRestart(t *testing.T) {
	path := t.TempDir() + "/store.wal"

	s1 := New()
	if err := s1.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s1.Put(fmt.Sprintf("key-%03d", i), []byte{byte(i), byte(i + 1)})
	}
	s1.Put("key-050", []byte("overwritten")) // later record wins
	if err := s1.DetachWAL(); err != nil {
		t.Fatal(err)
	}

	s2 := New()
	if err := s2.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer s2.DetachWAL()
	if s2.Len() != 100 {
		t.Fatalf("replayed Len = %d, want 100", s2.Len())
	}
	v, err := s2.Get("key-050")
	if err != nil || !bytes.Equal(v, []byte("overwritten")) {
		t.Errorf("key-050 = %q, %v", v, err)
	}
	v, _ = s2.Get("key-007")
	if !bytes.Equal(v, []byte{7, 8}) {
		t.Errorf("key-007 = %v", v)
	}
}

func TestWALUpdateJournaled(t *testing.T) {
	path := t.TempDir() + "/store.wal"
	s1 := New()
	if err := s1.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	s1.Put("k", []byte("v1"))
	if err := s1.Update("k", func(old []byte) ([]byte, error) {
		return append(old, '2'), nil
	}); err != nil {
		t.Fatal(err)
	}
	s1.DetachWAL()

	s2 := New()
	if err := s2.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer s2.DetachWAL()
	v, err := s2.Get("k")
	if err != nil || !bytes.Equal(v, []byte("v12")) {
		t.Errorf("updated value after replay = %q, %v", v, err)
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	path := t.TempDir() + "/store.wal"
	s1 := New()
	if err := s1.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	s1.Put("a", []byte("complete"))
	s1.Put("b", []byte("also-complete"))
	s1.DetachWAL()

	// Simulate a crash mid-append: chop bytes off the tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := New()
	if err := s2.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("a"); err != nil {
		t.Error("first complete record lost to torn tail")
	}
	if _, err := s2.Get("b"); err == nil {
		t.Error("torn record replayed as complete")
	}
	// The log must remain appendable after truncation.
	s2.Put("c", []byte("post-crash"))
	s2.DetachWAL()

	s3 := New()
	if err := s3.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer s3.DetachWAL()
	if _, err := s3.Get("c"); err != nil {
		t.Error("post-crash record lost")
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	path := t.TempDir() + "/store.wal"
	s1 := New()
	s1.AttachWALOptions(path, WALOptions{})
	s1.Put("first", []byte("ok"))
	s1.Put("second", []byte("ok"))
	s1.DetachWAL()

	raw, _ := os.ReadFile(path)
	raw[len(raw)-3] ^= 0xFF // corrupt the CRC region of the last record
	os.WriteFile(path, raw, 0o600)

	s2 := New()
	if err := s2.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer s2.DetachWAL()
	if _, err := s2.Get("first"); err != nil {
		t.Error("record before corruption lost")
	}
	if _, err := s2.Get("second"); err == nil {
		t.Error("corrupt record replayed")
	}
}

func TestWALDoubleAttach(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.AttachWALOptions(dir+"/a.wal", WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer s.DetachWAL()
	if err := s.AttachWALOptions(dir+"/b.wal", WALOptions{}); err != ErrWALAttached {
		t.Errorf("second attach = %v, want ErrWALAttached", err)
	}
}

func TestWALDetachWithoutAttach(t *testing.T) {
	if err := New().DetachWAL(); err != nil {
		t.Errorf("DetachWAL on plain store = %v", err)
	}
	if err := New().SyncWAL(); err != nil {
		t.Errorf("SyncWAL on plain store = %v", err)
	}
}

func TestWALBadMagic(t *testing.T) {
	path := t.TempDir() + "/bad.wal"
	os.WriteFile(path, []byte("NOTAWAL-12345678"), 0o600)
	if err := New().AttachWALOptions(path, WALOptions{}); err == nil {
		t.Error("AttachWAL accepted bad magic")
	}
}

func TestWALEmptyValueAndKey(t *testing.T) {
	path := t.TempDir() + "/edge.wal"
	s1 := New()
	s1.AttachWALOptions(path, WALOptions{})
	s1.Put("", []byte{})
	s1.Put("k", nil)
	s1.DetachWAL()

	s2 := New()
	if err := s2.AttachWALOptions(path, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	defer s2.DetachWAL()
	if v, err := s2.Get(""); err != nil || len(v) != 0 {
		t.Errorf("empty key roundtrip = %v, %v", v, err)
	}
	if v, err := s2.Get("k"); err != nil || len(v) != 0 {
		t.Errorf("nil value roundtrip = %v, %v", v, err)
	}
}
