package kvstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"ortoa/internal/vfs"
)

// Snapshot format: magic, entry count, then count entries of
// varint(keyLen) key varint(valLen) val. Values and keys are opaque
// (already encrypted/encoded by the protocol layer). A snapshot is
// written only by a checkpoint and read only by Recover
// (durability.go).
var snapshotMagic = [8]byte{'O', 'R', 'T', 'O', 'A', 'K', 'V', '1'}

// saveFile writes a snapshot of the store to path crash-atomically —
// temp file in the same directory, fsync, rename, directory fsync — so
// a crash at any point leaves either the old snapshot or the complete
// new one, and returns its size. The store may be taking writes
// meanwhile: each shard is encoded into a buffer under its read lock
// and written out after the lock is released, so no writer waits on
// the disk, and the entry count is patched in at the end. Per-shard
// consistency is guaranteed, cross-shard is not (as for Range).
func (s *Store) saveFile(fsys vfs.FS, path string) (size int64, err error) {
	if m := s.metrics.Load(); m != nil {
		defer m.snapshotWrite.Since(time.Now())
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			fsys.Remove(tmp) //nolint:errcheck // best-effort cleanup
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<16)
	var head [16]byte // magic, then the entry count
	copy(head[:], snapshotMagic[:])
	if _, err = bw.Write(head[:]); err != nil {
		return 0, err
	}
	size = int64(len(head))
	var count uint64
	var buf []byte
	for i := range s.shards {
		sh := &s.shards[i]
		buf = buf[:0]
		sh.mu.RLock()
		for k, v := range sh.items {
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
			buf = binary.AppendUvarint(buf, uint64(len(v)))
			buf = append(buf, v...)
		}
		count += uint64(len(sh.items))
		sh.mu.RUnlock()
		if _, err = bw.Write(buf); err != nil {
			return 0, err
		}
		size += int64(len(buf))
	}
	if err = bw.Flush(); err != nil {
		return 0, err
	}
	if _, err = f.Seek(int64(len(snapshotMagic)), io.SeekStart); err != nil {
		return 0, err
	}
	if _, err = f.Write(binary.LittleEndian.AppendUint64(nil, count)); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return 0, err
	}
	return size, fsys.SyncDir(vfs.Dir(path))
}

// loadFile reads the snapshot at path into the store and returns its
// size.
func (s *Store) loadFile(fsys vfs.FS, path string) (int64, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	return size, s.readSnapshot(f)
}

// readSnapshot loads entries from r into the store without journaling
// them, overwriting duplicates.
func (s *Store) readSnapshot(r io.Reader) error {
	if m := s.metrics.Load(); m != nil {
		defer m.snapshotLoad.Since(time.Now())
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("kvstore: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("kvstore: bad snapshot magic %q", magic[:])
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return fmt.Errorf("kvstore: reading snapshot count: %w", err)
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	for i := uint64(0); i < n; i++ {
		key, err := readBlob(br)
		if err != nil {
			return fmt.Errorf("kvstore: snapshot entry %d key: %w", i, err)
		}
		val, err := readBlob(br)
		if err != nil {
			return fmt.Errorf("kvstore: snapshot entry %d value: %w", i, err)
		}
		s.applyPut(string(key), val)
	}
	return nil
}

func readBlob(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<30 {
		return nil, fmt.Errorf("blob length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
