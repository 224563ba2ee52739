package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	fspkg "io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/vfs"
)

// Generation-based checkpointing. A recovered store lives in a state
// directory with this layout:
//
//	MANIFEST    "ORTOAMF1 <gen>\n" — the committed generation
//	snap-<gen>  full snapshot taken when wal-<gen> became current
//	wal-<gen>   journal of every mutation since snap-<gen>
//
// Recovery loads snap-<gen> (if present; generation 0 starts empty)
// and replays wal-<gen>. A checkpoint advances the generation in an
// order that keeps a consistent pair recoverable at every instant:
//
//	1. create and sync wal-<gen+1>, then switch journaling to it —
//	   from here on, new mutations land in the next generation;
//	2. write snap-<gen+1> crash-atomically — it includes everything
//	   journaled to wal-<gen>, because those mutations are in memory;
//	3. commit MANIFEST to <gen+1> crash-atomically;
//	4. delete the retired snap-<gen>/wal-<gen>.
//
// A crash between 1 and 3 leaves MANIFEST at <gen> with wal-<gen+1>
// also on disk; Recover detects that shape, replays both logs in
// order, and completes the interrupted checkpoint (roll-forward).
// Mutations journaled between the switch and the snapshot may appear
// in both snap-<gen+1> and wal-<gen+1>; replay is idempotent and
// preserves per-key order, so the overlap is harmless.
//
// The store decides when to checkpoint: as soon as the live log holds
// more bytes than the last snapshot (and at least checkpointFloor), a
// journaled mutation starts one on its own goroutine. The log's size
// relative to the snapshot is the replay debt, so replay after a crash
// stays within about one snapshot's worth of log; each checkpoint
// writes one snapshot per snapshot's worth of log journaled, so
// checkpoints at most double the bytes written; and a store growing
// from empty checkpoints at sizes that at least double, so the
// snapshots it ever writes add up to at most twice the final one.

const manifestName = "MANIFEST"

var manifestMagic = "ORTOAMF1"

// checkpointFloor is the least replay debt that starts a checkpoint.
// A checkpoint costs a handful of fsyncs and file creations however
// small the store, while replaying a mebibyte of log takes about a
// millisecond: without the floor a near-empty store would checkpoint
// every few accesses (an LBL record at 160 B values journals ≈11 KB,
// so the floor is about 95 of them).
const checkpointFloor = 1 << 20

// errCheckpointsStopped reports a Checkpoint after StopCheckpoints.
var errCheckpointsStopped = errors.New("kvstore: checkpoints stopped")

// checkpointer tracks the generation state of a recovered store.
type checkpointer struct {
	fsys vfs.FS
	dir  string

	mu        sync.Mutex    // serializes checkpoints; guards liveGen and snapBytes
	liveGen   uint64        // generation the WAL currently journals to
	snapBytes int64         // size of snap-<gen>
	gen       atomic.Uint64 // committed (MANIFEST) generation

	// due is the live log size past which the next checkpoint starts;
	// auto is set while a checkpoint the store started itself runs.
	due  atomic.Int64
	auto atomic.Bool

	stopMu  sync.Mutex // guards stopped against running.Add
	stopped bool
	running sync.WaitGroup // checkpoints in progress
}

func genPath(dir, kind string, gen uint64) string {
	return fmt.Sprintf("%s/%s-%08d", dir, kind, gen)
}

// Recover restores the newest consistent checkpoint generation from
// dir into the (empty) store and attaches its WAL, creating the
// directory and generation 0 on first run, all on opts.FS. After
// Recover the store journals every mutation under opts.Policy and
// checkpoints on its own as its log grows; Checkpoint forces one.
func (s *Store) Recover(dir string, opts WALOptions) error {
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	if w, _ := s.attached(); w != nil {
		return ErrWALAttached
	}
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	gen, found, err := readManifest(fsys, dir)
	if err != nil {
		return err
	}
	if !found {
		// First run: commit generation 0 before taking any writes so
		// later recoveries have a manifest to anchor on.
		if err := writeManifest(fsys, dir, 0); err != nil {
			return err
		}
	}
	snapPath := genPath(dir, "snap", gen)
	snapBytes, err := s.loadFile(fsys, snapPath)
	if err != nil && !errors.Is(err, fspkg.ErrNotExist) {
		return fmt.Errorf("kvstore: loading %s: %w", snapPath, err)
	}
	walPath := genPath(dir, "wal", gen)
	nextWalPath := genPath(dir, "wal", gen+1)
	rollForward, err := fileExists(fsys, nextWalPath)
	if err != nil {
		return err
	}
	if rollForward {
		// A checkpoint was interrupted after its WAL switch: the
		// retired log holds the older records, the next-generation
		// log the newer ones. Replay both in order, then finish the
		// checkpoint below.
		if err := s.replayWALFile(fsys, walPath); err != nil && !errors.Is(err, fspkg.ErrNotExist) {
			return fmt.Errorf("kvstore: replaying %s: %w", walPath, err)
		}
		walPath = nextWalPath
	}
	opts.FS = fsys
	if err := s.AttachWALOptions(walPath, opts); err != nil {
		return err
	}
	ck := &checkpointer{fsys: fsys, dir: dir, liveGen: gen, snapBytes: snapBytes}
	ck.gen.Store(gen)
	ck.due.Store(max(snapBytes, checkpointFloor))
	if rollForward {
		ck.liveGen = gen + 1
		if err := ck.commit(s); err != nil {
			s.DetachWAL() //nolint:errcheck // already failing
			return fmt.Errorf("kvstore: completing interrupted checkpoint: %w", err)
		}
	}
	// Sweep leftovers a crash mid-retirement can strand (best-effort).
	if g := ck.gen.Load(); g > 0 {
		fsys.Remove(genPath(dir, "snap", g-1)) //nolint:errcheck
		fsys.Remove(genPath(dir, "wal", g-1))  //nolint:errcheck
	}
	s.walMu.Lock()
	s.ckpt = ck
	s.walMu.Unlock()
	return nil
}

// replayWALFile replays a retired generation's log without attaching
// it.
func (s *Store) replayWALFile(fsys vfs.FS, path string) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, records, err := s.replayWAL(f)
	s.walReplayed.Add(records)
	return err
}

// attached returns the log the store journals to and, if it was
// opened with Recover, its checkpointer.
func (s *Store) attached() (*wal, *checkpointer) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.wal, s.ckpt
}

// begin registers a checkpoint about to run, unless StopCheckpoints
// has begun.
func (ck *checkpointer) begin() bool {
	ck.stopMu.Lock()
	defer ck.stopMu.Unlock()
	if !ck.stopped {
		ck.running.Add(1)
	}
	return !ck.stopped
}

// maybeCheckpoint starts a checkpoint on its own goroutine when the
// live log, logBytes long, has outgrown the last snapshot and none the
// store started is running. It never blocks: journal calls it with a
// shard lock held, which the checkpoint's snapshot will need.
func (s *Store) maybeCheckpoint(ck *checkpointer, logBytes int64) {
	if logBytes <= ck.due.Load() || !ck.auto.CompareAndSwap(false, true) {
		return
	}
	if !ck.begin() {
		ck.auto.Store(false)
		return
	}
	go func() {
		defer ck.running.Done()
		s.checkpoint(ck) //nolint:errcheck // counted in metrics; due moved on
		ck.auto.Store(false)
		// Mutations journaled while this one ran found it running and
		// started nothing: look at the log once more for them.
		s.maybeCheckpoint(ck, s.walBytes())
	}()
}

// Checkpoint takes a snapshot, rotates the WAL to a fresh generation,
// and retires the previous pair, bounding recovery replay time. The
// store does this on its own as its log grows; Checkpoint forces one
// now. It is safe under concurrent mutations and serializes with
// other checkpoints. The store must have been opened with Recover, and
// fails after StopCheckpoints.
func (s *Store) Checkpoint() error {
	_, ck := s.attached()
	if ck == nil {
		return errors.New("kvstore: Checkpoint requires a store opened with Recover")
	}
	if !ck.begin() {
		return errCheckpointsStopped
	}
	defer ck.running.Done()
	return s.checkpoint(ck)
}

func (s *Store) checkpoint(ck *checkpointer) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	m := s.metrics.Load()
	start := time.Now()
	if err := s.WALErr(); err != nil {
		// A poisoned log may be half-switched already: touch nothing.
		return ck.fail(s, m, err)
	}
	if ck.liveGen == ck.gen.Load() {
		// Create and sync the next generation's log before any record
		// can be acknowledged against it.
		newGen := ck.gen.Load() + 1
		newPath := genPath(ck.dir, "wal", newGen)
		f, err := ck.fsys.OpenFile(newPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
		if err != nil {
			return ck.fail(s, m, err)
		}
		if err := initLog(ck.fsys, f, newPath); err != nil {
			f.Close()
			return ck.fail(s, m, err)
		}
		if err := s.switchWAL(f); err != nil {
			return ck.fail(s, m, err)
		}
		ck.liveGen = newGen
	}
	// If a previous attempt switched but failed before committing,
	// liveGen is already ahead: just retry the snapshot and commit.
	if err := ck.commit(s); err != nil {
		return ck.fail(s, m, err)
	}
	if m != nil {
		m.checkpointTime.Since(start)
		m.checkpoints.Inc()
	}
	return nil
}

// commit writes the snapshot for ck.liveGen, commits the manifest, and
// retires the previous generation. Callers hold ck.mu (or are in
// single-threaded recovery).
func (ck *checkpointer) commit(s *Store) error {
	size, err := s.saveFile(ck.fsys, genPath(ck.dir, "snap", ck.liveGen))
	if err != nil {
		return err
	}
	if err := writeManifest(ck.fsys, ck.dir, ck.liveGen); err != nil {
		return err
	}
	old := ck.gen.Swap(ck.liveGen)
	ck.snapBytes = size
	ck.due.Store(max(size, checkpointFloor))
	// Retirement is best-effort: stranded files cost disk space, not
	// correctness, and Recover sweeps them.
	ck.fsys.Remove(genPath(ck.dir, "snap", old)) //nolint:errcheck
	ck.fsys.Remove(genPath(ck.dir, "wal", old))  //nolint:errcheck
	ck.fsys.SyncDir(ck.dir)                      //nolint:errcheck
	return nil
}

// fail counts a failed checkpoint and puts the next one another
// snapshot's worth of log away, so a failing disk is not retried on
// every mutation. Callers hold ck.mu.
func (ck *checkpointer) fail(s *Store, m *storeMetrics, err error) error {
	if m != nil {
		m.checkpointErrors.Inc()
	}
	ck.due.Store(s.walBytes() + max(ck.snapBytes, checkpointFloor))
	return err
}

// switchWAL redirects journaling to the already-synced file nf and
// retires the old one. Everything appended so far becomes durable: the
// old file is flushed, then fsynced as a group commit's leader would —
// with the log's mutex released, so appends keep flowing into nf — and
// group commit waiters are released. nf is the log's from the switch
// on; a failure before it closes nf.
func (s *Store) switchWAL(nf vfs.File) error {
	w, _ := s.attached()
	if w == nil {
		nf.Close()
		return errors.New("kvstore: no WAL attached")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Wait out any in-flight group fsync: its leader holds a handle to
	// the old file.
	for w.syncing && w.failed == nil {
		w.cond.Wait()
	}
	if w.failed == nil {
		if err := w.w.Flush(); err != nil {
			w.fail(err)
		}
	}
	if w.failed != nil {
		nf.Close()
		return w.failed
	}
	old, target := w.f, w.seq
	w.f, w.w = nf, bufio.NewWriterSize(nf, 1<<16)
	w.bytes.Store(int64(len(walMagic)))
	w.syncing = true
	w.mu.Unlock()
	err := old.Sync()
	old.Close() //nolint:errcheck // synced or failing; the log has moved on
	w.mu.Lock()
	w.syncing = false
	if err != nil {
		w.fail(err)
		return w.failed
	}
	w.durable = max(w.durable, target)
	w.cond.Broadcast()
	return nil
}

// StopCheckpoints waits for a checkpoint in progress and lets none
// start afterwards, so a store being shut down — or abandoned by a
// crash drill — never writes to its state directory again. DetachWAL
// calls it; it is a no-op for a store not opened with Recover.
func (s *Store) StopCheckpoints() {
	_, ck := s.attached()
	if ck == nil {
		return
	}
	ck.stopMu.Lock()
	ck.stopped = true
	ck.stopMu.Unlock()
	ck.running.Wait()
}

// Generation returns the committed checkpoint generation (0 before the
// first checkpoint, or for a store not opened with Recover).
func (s *Store) Generation() uint64 {
	if _, ck := s.attached(); ck != nil {
		return ck.gen.Load()
	}
	return 0
}

func readManifest(fsys vfs.FS, dir string) (uint64, bool, error) {
	f, err := fsys.OpenFile(dir+"/"+manifestName, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fspkg.ErrNotExist) {
			return 0, false, nil
		}
		return 0, false, err
	}
	defer f.Close()
	buf, err := io.ReadAll(io.LimitReader(f, 64))
	if err != nil {
		return 0, false, err
	}
	var magic string
	var gen uint64
	if _, err := fmt.Sscanf(string(buf), "%s %d", &magic, &gen); err != nil || magic != manifestMagic {
		return 0, false, fmt.Errorf("kvstore: corrupt manifest %q", buf)
	}
	return gen, true, nil
}

func writeManifest(fsys vfs.FS, dir string, gen uint64) error {
	return vfs.WriteFileAtomic(fsys, dir+"/"+manifestName, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %d\n", manifestMagic, gen)
		return err
	})
}

func fileExists(fsys vfs.FS, path string) (bool, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fspkg.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	f.Close()
	return true, nil
}
