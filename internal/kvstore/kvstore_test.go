package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"ortoa/internal/crashfs"
	"ortoa/internal/vfs"
)

func TestGetPut(t *testing.T) {
	s := New()
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	s.Put("a", []byte("1"))
	got, err := s.Get("a")
	if err != nil || !bytes.Equal(got, []byte("1")) {
		t.Errorf("Get(a) = %q, %v", got, err)
	}
	s.Put("a", []byte("22"))
	got, _ = s.Get("a")
	if !bytes.Equal(got, []byte("22")) {
		t.Errorf("Get after overwrite = %q", got)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	s.Put("k", []byte{1, 2, 3})
	v, _ := s.Get("k")
	v[0] = 99
	v2, _ := s.Get("k")
	if v2[0] != 1 {
		t.Error("Get result aliases stored value")
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := New()
	in := []byte{5}
	s.Put("k", in)
	in[0] = 6
	v, _ := s.Get("k")
	if v[0] != 5 {
		t.Error("Put retained caller's slice")
	}
}

func TestUpdate(t *testing.T) {
	s := New()
	if err := s.Update("nope", func(old []byte) ([]byte, error) { return old, nil }); !errors.Is(err, ErrNotFound) {
		t.Errorf("Update(missing) = %v, want ErrNotFound", err)
	}
	s.Put("k", []byte("old"))
	err := s.Update("k", func(old []byte) ([]byte, error) {
		if !bytes.Equal(old, []byte("old")) {
			t.Errorf("Update saw %q", old)
		}
		return []byte("newer"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get("k")
	if !bytes.Equal(v, []byte("newer")) {
		t.Errorf("after Update = %q", v)
	}
}

func TestUpdateError(t *testing.T) {
	s := New()
	s.Put("k", []byte("keep"))
	wantErr := errors.New("boom")
	if err := s.Update("k", func([]byte) ([]byte, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("Update error = %v", err)
	}
	v, _ := s.Get("k")
	if !bytes.Equal(v, []byte("keep")) {
		t.Error("failed Update modified the value")
	}
}

func TestLenAndBytes(t *testing.T) {
	s := New()
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("empty store: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	s.Put("ab", []byte("xyz")) // 2+3
	s.Put("c", []byte("12"))   // 1+2
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if s.Bytes() != 8 {
		t.Errorf("Bytes = %d, want 8", s.Bytes())
	}
	s.Put("ab", []byte("x")) // now 2+1
	if s.Bytes() != 6 {
		t.Errorf("Bytes after overwrite = %d, want 6", s.Bytes())
	}
}

func TestRange(t *testing.T) {
	s := New()
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	for k, v := range want {
		s.Put(k, []byte(v))
	}
	got := map[string]string{}
	s.Range(func(k string, v []byte) bool {
		got[k] = string(v)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Range[%q] = %q, want %q", k, got[k], v)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	n := 0
	s.Range(func(string, []byte) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("Range visited %d after stop, want 5", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				s.Put(k, []byte{byte(i)})
				if v, err := s.Get(k); err != nil || v[0] != byte(i) {
					t.Errorf("Get(%s) = %v, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != workers*perWorker {
		t.Errorf("Len = %d, want %d", s.Len(), workers*perWorker)
	}
}

func TestConcurrentUpdateAtomicity(t *testing.T) {
	s := New()
	s.Put("ctr", []byte{0, 0, 0, 0, 0, 0, 0, 0})
	const workers = 8
	const increments = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				err := s.Update("ctr", func(old []byte) ([]byte, error) {
					n := uint64(old[0]) | uint64(old[1])<<8 | uint64(old[2])<<16 | uint64(old[3])<<24 |
						uint64(old[4])<<32 | uint64(old[5])<<40 | uint64(old[6])<<48 | uint64(old[7])<<56
					n++
					nv := make([]byte, 8)
					for b := 0; b < 8; b++ {
						nv[b] = byte(n >> (8 * b))
					}
					return nv, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, _ := s.Get("ctr")
	n := uint64(0)
	for b := 7; b >= 0; b-- {
		n = n<<8 | uint64(v[b])
	}
	if n != workers*increments {
		t.Errorf("counter = %d, want %d (lost updates)", n, workers*increments)
	}
}

// snapshotBytes returns the snapshot a checkpoint of s writes.
func snapshotBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	fsys := crashfs.New(nil)
	if _, err := s.saveFile(fsys, "snap"); err != nil {
		t.Fatal(err)
	}
	b, err := fsys.ReadFile("snap")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 500; i++ {
		s.Put(fmt.Sprintf("key-%04d", i), bytes.Repeat([]byte{byte(i)}, i%40))
	}
	restored := New()
	if err := restored.readSnapshot(bytes.NewReader(snapshotBytes(t, s))); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), s.Len())
	}
	s.Range(func(k string, v []byte) bool {
		got, err := restored.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Errorf("restored[%q] = %q, %v; want %q", k, got, err, v)
			return false
		}
		return true
	})
	if restored.Bytes() != s.Bytes() {
		t.Errorf("restored Bytes = %d, want %d", restored.Bytes(), s.Bytes())
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	s := New()
	if err := s.readSnapshot(bytes.NewReader([]byte("NOTAMAGIC0000000"))); err == nil {
		t.Error("readSnapshot accepted bad magic")
	}
}

func TestSnapshotTruncated(t *testing.T) {
	s := New()
	s.Put("k", []byte("v"))
	snap := snapshotBytes(t, s)
	if err := New().readSnapshot(bytes.NewReader(snap[:len(snap)-1])); err == nil {
		t.Error("readSnapshot accepted truncated input")
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := New()
	s.Put("alpha", []byte("beta"))
	path := t.TempDir() + "/snap.kv"
	saved, err := s.saveFile(vfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New()
	loaded, err := s2.loadFile(vfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != saved {
		t.Errorf("loaded a %d-byte snapshot, saved %d", loaded, saved)
	}
	v, err := s2.Get("alpha")
	if err != nil || !bytes.Equal(v, []byte("beta")) {
		t.Errorf("loaded Get = %q, %v", v, err)
	}
}

func TestQuickPutGet(t *testing.T) {
	s := New()
	f := func(k string, v []byte) bool {
		s.Put(k, v)
		got, err := s.Get(k)
		return err == nil && bytes.Equal(got, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
