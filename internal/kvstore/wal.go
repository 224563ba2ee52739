package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/vfs"
)

// WAL support: a Store can journal every mutation to an append-only
// log, so a crashed server restarts with its (encrypted) records
// intact — the durability a Redis-style substrate would provide with
// AOF persistence. Records are CRC-framed; replay truncates a torn
// tail and rejects mid-file corruption (see replayWAL).
//
// Log record: [1B op][uvarint keyLen][key][uvarint valLen][value]
// [4B crc32 of everything before it]. Deletes carry no value.
//
// Durability is governed by a SyncPolicy. Under SyncGroupCommit a
// mutation is acknowledged only after its record is fsynced; the fsync
// is shared: the first waiter becomes the leader, flushes everything
// appended so far, issues one fsync, and wakes the group. Any append,
// flush, or fsync failure is sticky — once the log's on-disk state is
// uncertain the store fails every subsequent journaled mutation fast
// (fail-stop) rather than acknowledge writes it may not be able to
// replay. The sticky error is surfaced by WALErr, the wal_failed
// gauge, and the /healthz endpoint.

const (
	walOpPut    byte = 1
	walOpDelete byte = 2
)

var walMagic = [8]byte{'O', 'R', 'T', 'O', 'A', 'W', 'L', '1'}

// ErrWALAttached reports an attach or Recover on a store that already
// journals.
var ErrWALAttached = errors.New("kvstore: WAL already attached")

// A SyncPolicy says when journaled mutations reach stable storage.
type SyncPolicy uint8

const (
	// SyncNever leaves fsync scheduling to the caller: mutations are
	// acknowledged from the OS buffer cache and survive process death
	// but not machine crashes until SyncWAL (or a checkpoint) runs.
	SyncNever SyncPolicy = iota
	// SyncInterval runs a background flush+fsync loop every
	// WALOptions.Interval; a crash loses at most one interval of
	// acknowledged writes.
	SyncInterval
	// SyncGroupCommit acknowledges a mutation only after its record is
	// fsynced. Concurrent writers share one fsync (group commit), so
	// throughput degrades far less than one-fsync-per-write.
	SyncGroupCommit
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncInterval:
		return "interval"
	case SyncGroupCommit:
		return "group-commit"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", p)
	}
}

// ParseSyncPolicy parses the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never":
		return SyncNever, nil
	case "interval":
		return SyncInterval, nil
	case "group-commit":
		return SyncGroupCommit, nil
	}
	return 0, fmt.Errorf("kvstore: unknown fsync policy %q (want never, interval, or group-commit)", s)
}

// WALOptions configures an attached journal.
type WALOptions struct {
	Policy   SyncPolicy
	Interval time.Duration // SyncInterval cadence; default 2s
	FS       vfs.FS        // nil: the real filesystem
}

type wal struct {
	policy SyncPolicy

	mu   sync.Mutex
	cond *sync.Cond // broadcast on durable/syncing/failed changes
	f    vfs.File
	w    *bufio.Writer

	seq     uint64       // LSN of the last appended record
	durable uint64       // highest LSN known to be fsynced
	syncing bool         // a group-commit leader is mid-fsync
	failed  error        // sticky first append/flush/fsync failure
	bytes   atomic.Int64 // the live file's length, buffered records included
	rec     []byte       // append's encoding buffer

	stop chan struct{} // closes the SyncInterval loop; nil otherwise
	done chan struct{}

	metrics *atomic.Pointer[storeMetrics] // the owning store's metrics
}

// fail records the first journaling failure; the error is sticky and
// every later journaled mutation fails with it. Callers hold w.mu.
func (w *wal) fail(err error) {
	if w.failed == nil {
		w.failed = fmt.Errorf("kvstore: WAL failed: %w", err)
	}
	w.cond.Broadcast()
}

// AttachWALOptions replays the log at path into the store (creating it
// if absent) and journals every subsequent Put, Update, and Delete to it
// under opts.Policy; call DetachWAL on shutdown. Nothing checkpoints or
// truncates this bare log, so a restart replays all of it: it is kept
// for the repository benchmark's deployment, and a durable store uses
// Recover.
func (s *Store) AttachWALOptions(path string, opts WALOptions) (err error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal != nil {
		return ErrWALAttached
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	replayed, records, err := s.replayWAL(f)
	if err != nil {
		return err
	}
	s.walReplayed.Add(records)
	// Truncate any torn tail so new records append after the last
	// valid one.
	if err := f.Truncate(replayed); err != nil {
		return err
	}
	if _, err := f.Seek(replayed, io.SeekStart); err != nil {
		return err
	}
	if replayed == 0 {
		if err := initLog(fsys, f, path); err != nil {
			return err
		}
		replayed = int64(len(walMagic))
	}
	w := &wal{
		policy:  opts.Policy,
		f:       f,
		w:       bufio.NewWriterSize(f, 1<<16),
		metrics: &s.metrics,
	}
	w.cond = sync.NewCond(&w.mu)
	w.bytes.Store(replayed)
	if opts.Policy == SyncInterval {
		interval := opts.Interval
		if interval <= 0 {
			interval = 2 * time.Second
		}
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.intervalLoop(interval)
	}
	s.wal = w
	return nil
}

// initLog writes a brand-new log's header to f and makes the file
// itself durable before any record is acknowledged against it — a
// crash must not lose the journal that writes were promised to be in.
func initLog(fsys vfs.FS, f vfs.File, path string) error {
	if _, err := f.Write(walMagic[:]); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return fsys.SyncDir(vfs.Dir(path))
}

// intervalLoop is the SyncInterval background fsync.
func (w *wal) intervalLoop(interval time.Duration) {
	defer close(w.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			w.syncTo(w.seq) //nolint:errcheck // sticky; surfaced by WALErr
			w.mu.Unlock()
		}
	}
}

// replayWAL applies valid records, returning the byte offset after the
// last valid record and the number of records applied. A tail the
// crash model can produce — a truncated record, or a final record
// whose CRC does not match — is tolerated: replay keeps the valid
// prefix and the caller truncates the rest. Corruption strictly before
// the last record (valid data following a bad record) cannot come from
// a torn write and is rejected, because silently dropping interior
// records would resurrect stale values.
func (s *Store) replayWAL(f vfs.File) (int64, int64, error) {
	size, err := f.Size()
	if err != nil {
		return 0, 0, err
	}
	if size == 0 {
		return 0, 0, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var magic [8]byte
	if n, err := io.ReadFull(br, magic[:]); err != nil {
		if n < len(magic) && size < int64(len(magic)) {
			// Shorter than the magic: a crash before the header
			// sync. Treat as empty; the attach rewrites it.
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("kvstore: reading WAL magic: %w", err)
	}
	if magic != walMagic {
		return 0, 0, fmt.Errorf("kvstore: bad WAL magic %q", magic[:])
	}
	valid := int64(len(walMagic))
	var records int64
	for {
		rec, n, err := readWALRecord(br)
		switch {
		case err == nil:
			switch rec.op {
			case walOpPut:
				s.applyPut(rec.key, rec.value)
			case walOpDelete:
				s.applyDelete(rec.key)
			}
			valid += n
			records++
		case errors.Is(err, io.EOF) && n == 0:
			// Clean end of log.
			return valid, records, nil
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			// Torn final record: the crash cut the write short.
			return valid, records, nil
		case errors.Is(err, errWALCRC) && valid+n == size:
			// The last record is complete in length but garbled — a
			// torn in-place overwrite. Nothing follows it, so treat
			// it as the tail and truncate.
			return valid, records, nil
		default:
			return 0, 0, fmt.Errorf("kvstore: WAL corrupt at offset %d: %w", valid, err)
		}
	}
}

var errWALCRC = errors.New("kvstore: WAL record CRC mismatch")

type walRecord struct {
	op    byte
	key   string
	value []byte
}

// readWALRecord parses one record, returning how many bytes it
// consumed even on failure so replayWAL can classify the damage.
func readWALRecord(br *bufio.Reader) (walRecord, int64, error) {
	var rec walRecord
	var n int64
	crc := crc32.NewIEEE()
	tee := io.TeeReader(br, crc)
	var opBuf [1]byte
	if _, err := io.ReadFull(tee, opBuf[:]); err != nil {
		return rec, n, err
	}
	n = 1
	rec.op = opBuf[0]
	if rec.op != walOpPut && rec.op != walOpDelete {
		return rec, n, errors.New("kvstore: bad WAL op")
	}
	readBlobLen := func() ([]byte, error) {
		l, vn, err := readUvarintCounted(tee)
		n += vn
		if err != nil {
			return nil, err
		}
		if l > 1<<30 {
			return nil, errors.New("kvstore: WAL blob too large")
		}
		buf := make([]byte, l)
		nr, err := io.ReadFull(tee, buf)
		n += int64(nr)
		if err != nil {
			return nil, err
		}
		return buf, nil
	}
	key, err := readBlobLen()
	if err != nil {
		return rec, n, err
	}
	rec.key = string(key)
	if rec.op == walOpPut {
		rec.value, err = readBlobLen()
		if err != nil {
			return rec, n, err
		}
	}
	want := crc.Sum32()
	var crcBuf [4]byte
	nr, err := io.ReadFull(br, crcBuf[:])
	n += int64(nr)
	if err != nil {
		return rec, n, err
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != want {
		return rec, n, errWALCRC
	}
	return rec, n, nil
}

// readUvarintCounted reads a uvarint and reports how many bytes it
// consumed.
func readUvarintCounted(r io.Reader) (uint64, int64, error) {
	var v uint64
	var shift uint
	var n int64
	var b [1]byte
	for {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, n, err
		}
		n++
		if shift >= 64 {
			return 0, n, errors.New("kvstore: uvarint overflow")
		}
		v |= uint64(b[0]&0x7F) << shift
		if b[0] < 0x80 {
			return v, n, nil
		}
		shift += 7
	}
}

// append journals one mutation and returns its LSN. Callers hold the
// relevant shard lock, so per-key replay order matches application
// order. After any failure the log is poisoned: the write may be
// partially in the buffer, so every later append fails with the same
// sticky error.
func (w *wal) append(op byte, key string, value []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	rec := append(w.rec[:0], op)
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = append(rec, key...)
	if op == walOpPut {
		rec = binary.AppendUvarint(rec, uint64(len(value)))
		rec = append(rec, value...)
	}
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	w.rec = rec
	if _, err := w.w.Write(rec); err != nil {
		w.fail(err)
		return 0, w.failed
	}
	w.bytes.Add(int64(len(rec)))
	w.seq++
	return w.seq, nil
}

// syncTo blocks until every record up to lsn is fsynced, joining an
// in-flight group fsync or leading a new one. Callers hold w.mu; the
// lock is released for the fsync itself so appends keep flowing into
// the buffer while the disk works.
func (w *wal) syncTo(lsn uint64) error {
	for {
		if w.failed != nil {
			return w.failed
		}
		if w.durable >= lsn {
			return nil
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		// Leader: flush the whole buffer — covering this waiter and
		// everyone who appended since the last sync — then fsync once
		// for the group.
		w.syncing = true
		if err := w.w.Flush(); err != nil {
			w.syncing = false
			w.fail(err)
			return w.failed
		}
		target := w.seq
		start := time.Now()
		w.mu.Unlock()
		err := w.f.Sync()
		w.mu.Lock()
		if w.metrics != nil {
			if m := w.metrics.Load(); m != nil {
				m.walFsync.Since(start)
			}
		}
		w.syncing = false
		if err != nil {
			w.fail(err)
			return w.failed
		}
		if target > w.durable {
			w.durable = target
		}
		w.cond.Broadcast()
	}
}

// waitDurable blocks until the record at lsn is on stable storage,
// under policies that promise that at acknowledgement time. Callers
// must not hold shard locks (fsync latency must never serialize a
// shard).
func (s *Store) waitDurable(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	w, _ := s.attached()
	if w == nil || w.policy != SyncGroupCommit {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncTo(lsn)
}

// SyncWAL flushes buffered log records and fsyncs the file. No-op
// without an attached WAL.
func (s *Store) SyncWAL() error {
	w, _ := s.attached()
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncTo(w.seq)
}

// WALErr returns the sticky journaling failure, if any. A non-nil
// result means the on-disk log no longer reflects acknowledged state
// and the store is refusing new journaled mutations (fail-stop); it
// feeds the wal_failed gauge and the /healthz probe.
func (s *Store) WALErr() error {
	w, _ := s.attached()
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// WALReplayed returns the number of log records replayed into this
// store by AttachWALOptions/Recover — the recovery volume metric.
func (s *Store) WALReplayed() int64 { return s.walReplayed.Load() }

// walBytes returns the live log's length: everything journaled since
// the last checkpoint, what a restart would replay.
func (s *Store) walBytes() int64 {
	if w, _ := s.attached(); w != nil {
		return w.bytes.Load()
	}
	return 0
}

// DetachWAL stops checkpoints (StopCheckpoints), then flushes, fsyncs,
// and closes the log; the store keeps its contents and stops
// journaling.
func (s *Store) DetachWAL() error {
	s.StopCheckpoints()
	s.walMu.Lock()
	w := s.wal
	s.wal = nil
	s.ckpt = nil
	s.walMu.Unlock()
	if w == nil {
		return nil
	}
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		w.f.Close()
		return w.failed
	}
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
