package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ortoa/internal/crashfs"
	"ortoa/internal/obs"
)

// recoverStore opens a fresh store against dir on fsys, failing the
// test on error.
func recoverStore(t *testing.T, fsys *crashfs.FS, dir string, policy SyncPolicy) *Store {
	t.Helper()
	s := New()
	if err := s.Recover(dir, WALOptions{Policy: policy, FS: fsys}); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return s
}

// ckpt returns s's checkpointer (nil unless it was opened with Recover).
func ckpt(s *Store) *checkpointer {
	_, ck := s.attached()
	return ck
}

func TestGroupCommitDurableOnAck(t *testing.T) {
	fsys := crashfs.New(&crashfs.Plan{Seed: 42, TornWriteProb: 0.7})
	s := recoverStore(t, fsys, "state", SyncGroupCommit)

	// Concurrent writers race a crash. Every Put that returns nil was
	// acknowledged durable-on-ack and MUST survive; in-flight writes
	// may or may not.
	var mu sync.Mutex
	acked := map[string][]byte{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%d-%d", w, i)
				v := []byte(fmt.Sprintf("v%d-%d", w, i))
				if err := s.Put(k, v); err != nil {
					return // crash landed; later writes fail-stop
				}
				mu.Lock()
				acked[k] = v
				mu.Unlock()
			}
		}(w)
	}
	// Let some writes accumulate, then pull the plug mid-traffic.
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 64 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fsys.Crash()
	close(stop)
	wg.Wait()

	r := recoverStore(t, fsys, "state", SyncGroupCommit)
	defer r.DetachWAL()
	mu.Lock()
	defer mu.Unlock()
	lost := 0
	for k, v := range acked {
		got, err := r.Get(k)
		if err != nil {
			lost++
			t.Errorf("acknowledged write %q lost in crash", k)
			continue
		}
		if !bytes.Equal(got, v) {
			t.Errorf("recovered %q = %q, want %q", k, got, v)
		}
	}
	if lost == 0 && len(acked) == 0 {
		t.Fatal("test made no progress: zero acknowledged writes")
	}
}

func TestSyncNeverLosesUnsynced(t *testing.T) {
	fsys := crashfs.New(nil)
	s := recoverStore(t, fsys, "state", SyncNever)
	if err := s.Put("volatile", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fsys.Crash()

	r := recoverStore(t, fsys, "state", SyncNever)
	defer r.DetachWAL()
	if _, err := r.Get("volatile"); err == nil {
		t.Error("SyncNever write survived a crash without any fsync — crash model is not dropping buffers")
	}
}

func TestSyncNeverSurvivesAfterSyncWAL(t *testing.T) {
	fsys := crashfs.New(nil)
	s := recoverStore(t, fsys, "state", SyncNever)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	fsys.Crash()

	r := recoverStore(t, fsys, "state", SyncNever)
	defer r.DetachWAL()
	if v, err := r.Get("k"); err != nil || !bytes.Equal(v, []byte("v")) {
		t.Errorf("explicitly synced write lost: %q, %v", v, err)
	}
}

func TestWALStickyFailureFailStop(t *testing.T) {
	fsys := crashfs.New(nil)
	s := recoverStore(t, fsys, "state", SyncGroupCommit)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	if err := s.Put("ok", []byte("1")); err != nil {
		t.Fatal(err)
	}

	// Disk starts failing fsyncs: the next acknowledged-durable write
	// must fail, and the failure must be sticky even after the disk
	// "recovers".
	fsys.SetPlan(&crashfs.Plan{SyncErrProb: 1})
	if err := s.Put("doomed", []byte("2")); err == nil {
		t.Fatal("Put succeeded while fsync was failing")
	}
	if s.WALErr() == nil {
		t.Fatal("WALErr nil after fsync failure")
	}
	fsys.SetPlan(nil)
	if err := s.Put("after", []byte("3")); err == nil {
		t.Error("journaled mutation accepted on a poisoned WAL (sticky failure not enforced)")
	}
	if err := s.Update("ok", func(old []byte) ([]byte, error) { return old, nil }); err == nil {
		t.Error("Update accepted on a poisoned WAL")
	}
	if _, err := s.Delete("ok"); err == nil {
		t.Error("Delete accepted on a poisoned WAL")
	}
	if err := s.Checkpoint(); err == nil {
		t.Error("Checkpoint succeeded on a poisoned WAL")
	}

	// The failure is operator-visible: health check red, gauge set.
	failed := false
	for _, res := range reg.CheckHealth() {
		if res.Name == "kvstore_wal" && res.Err != nil {
			failed = true
		}
	}
	if !failed {
		t.Error("kvstore_wal health check did not report the sticky failure")
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf) //nolint:errcheck
	if !strings.Contains(buf.String(), "ortoa_kvstore_wal_failed 1") {
		t.Error("wal_failed gauge not 1 on poisoned WAL")
	}
	if err := s.DetachWAL(); err == nil {
		t.Error("DetachWAL returned nil for a poisoned WAL")
	}
}

// TestCheckpointBoundsReplayAndRetires: after a checkpoint, recovery
// holds exactly the live keys at their last values — overwritten keys
// once, deleted keys not at all — and replays only what was journaled
// since.
func TestCheckpointBoundsReplayAndRetires(t *testing.T) {
	fsys := crashfs.New(nil)
	s := recoverStore(t, fsys, "state", SyncGroupCommit)
	for round := 0; round < 4; round++ { // many updates to few keys
		for i := 0; i < 51; i++ {
			if err := s.Put(fmt.Sprintf("pre-%02d", i), []byte{byte(i), byte(round)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Delete("pre-50"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("Generation after checkpoint = %d, want 1", g)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("post-%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	fsys.Crash()

	r := recoverStore(t, fsys, "state", SyncGroupCommit)
	defer r.DetachWAL()
	if r.Len() != 60 {
		t.Errorf("recovered Len = %d, want 60", r.Len())
	}
	if v, err := r.Get("pre-07"); err != nil || !bytes.Equal(v, []byte{7, 3}) {
		t.Errorf("pre-07 = %v, %v; want its last value [7 3]", v, err)
	}
	if _, err := r.Get("pre-50"); err == nil {
		t.Error("a key deleted before the checkpoint came back")
	}
	// Replay only covered the records journaled after the checkpoint:
	// the 50 pre-checkpoint keys came from the snapshot.
	if n := r.WALReplayed(); n != 10 {
		t.Errorf("WALReplayed = %d, want 10 (checkpoint did not bound replay)", n)
	}
	// Generation 0 is retired.
	for _, p := range []string{"state/snap-00000000", "state/wal-00000000"} {
		if ok, _ := fileExists(fsys, p); ok {
			t.Errorf("%s not retired by checkpoint", p)
		}
	}
}

func TestCheckpointInterruptedRollForward(t *testing.T) {
	fsys := crashfs.New(nil)
	s := recoverStore(t, fsys, "state", SyncGroupCommit)
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := s.Put(k, []byte("gen0-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DetachWAL(); err != nil {
		t.Fatal(err)
	}

	// Hand-build the crash-mid-checkpoint shape: wal-00000001 exists
	// and holds newer records, but MANIFEST still says generation 0 and
	// no snap-00000001 was written. (A throwaway store journals the
	// extra key into the next generation's log.)
	aux := New()
	if err := aux.AttachWALOptions("state/wal-00000001", WALOptions{FS: fsys}); err != nil {
		t.Fatal(err)
	}
	if err := aux.Put("k4", []byte("gen1-k4")); err != nil {
		t.Fatal(err)
	}
	if err := aux.Put("k2", []byte("gen1-k2")); err != nil { // overwrite across logs
		t.Fatal(err)
	}
	if err := aux.DetachWAL(); err != nil {
		t.Fatal(err)
	}

	r := recoverStore(t, fsys, "state", SyncGroupCommit)
	defer r.DetachWAL()
	// Both logs replayed, in order: gen-0 values then gen-1 overwrites.
	for k, want := range map[string]string{
		"k1": "gen0-k1", "k2": "gen1-k2", "k3": "gen0-k3", "k4": "gen1-k4",
	} {
		if v, err := r.Get(k); err != nil || string(v) != want {
			t.Errorf("rolled-forward %s = %q, %v; want %q", k, v, err, want)
		}
	}
	// The interrupted checkpoint was completed: generation advanced,
	// snapshot written, old generation retired.
	if g := r.Generation(); g != 1 {
		t.Errorf("Generation after roll-forward = %d, want 1", g)
	}
	if ok, _ := fileExists(fsys, "state/snap-00000001"); !ok {
		t.Error("roll-forward did not write snap-00000001")
	}
	if ok, _ := fileExists(fsys, "state/wal-00000000"); ok {
		t.Error("roll-forward did not retire wal-00000000")
	}
}

func TestRepeatedCrashRecoverCycles(t *testing.T) {
	fsys := crashfs.New(&crashfs.Plan{Seed: 7, TornWriteProb: 0.5})
	expect := map[string]string{}
	for cycle := 0; cycle < 20; cycle++ {
		s := recoverStore(t, fsys, "state", SyncGroupCommit)
		// Everything acknowledged in earlier cycles must still be here.
		for k, v := range expect {
			if got, err := s.Get(k); err != nil || string(got) != v {
				t.Fatalf("cycle %d: lost %q (= %q, %v; want %q)", cycle, k, got, err, v)
			}
		}
		for i := 0; i < 5; i++ {
			k := fmt.Sprintf("c%02d-%d", cycle, i)
			v := fmt.Sprintf("val-%02d-%d", cycle, i)
			if err := s.Put(k, []byte(v)); err != nil {
				t.Fatalf("cycle %d put: %v", cycle, err)
			}
			expect[k] = v
		}
		if cycle%5 == 4 {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("cycle %d checkpoint: %v", cycle, err)
			}
		}
		fsys.Crash()
	}
}

// fill puts n records of size bytes each under keys prefix-0 … at
// overwrites distinct from those of earlier calls.
func fill(t *testing.T, s *Store, prefix string, keys, n, size int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v := bytes.Repeat([]byte{byte(i)}, size)
		if err := s.Put(fmt.Sprintf("%s-%d", prefix, i%keys), v); err != nil {
			t.Fatal(err)
		}
	}
}

// recordBytes is what a Put of a size-byte value under key journals.
func recordBytes(key string, size int) int64 {
	return int64(1+len(binary.AppendUvarint(nil, uint64(len(key))))+len(key)+
		len(binary.AppendUvarint(nil, uint64(size)))+size) + 4
}

// TestCheckpointTriggersOnGrowth pins the trigger rule: a recovered
// store checkpoints on its own exactly when its log outgrows both the
// floor and its last snapshot, and not a record earlier.
func TestCheckpointTriggersOnGrowth(t *testing.T) {
	fsys := crashfs.New(nil)
	s := recoverStore(t, fsys, "state", SyncNever)
	defer s.DetachWAL()
	ck := ckpt(s)
	const size = 4096
	rec := recordBytes("k-00", size)
	upTo := func(limit int64) { // journal up to limit bytes, not past it
		t.Helper()
		for i := 0; s.walBytes()+rec <= limit; i++ {
			if err := s.Put(fmt.Sprintf("k-%02d", i%64), make([]byte, size)); err != nil {
				t.Fatal(err)
			}
		}
		ck.running.Wait()
	}
	upTo(checkpointFloor)
	if g := s.Generation(); g != 0 {
		t.Fatalf("checkpointed at %d log bytes, under the %d-byte floor (generation %d)", s.walBytes(), checkpointFloor, g)
	}
	fill(t, s, "k", 64, 1, size) // one record past the floor
	ck.running.Wait()
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation %d after the log passed the floor, want 1", g)
	}

	// A store larger than the floor checkpoints when its log outgrows
	// its last snapshot.
	fill(t, s, "big", 512, 512, size)
	ck.running.Wait()
	if err := s.Checkpoint(); err != nil { // a known snapshot to measure against
		t.Fatal(err)
	}
	gen, snap := s.Generation(), ck.snapBytes
	if snap <= checkpointFloor {
		t.Fatalf("snapshot of %d bytes does not exceed the floor; the test needs a larger store", snap)
	}
	upTo(snap)
	if g := s.Generation(); g != gen {
		t.Fatalf("checkpointed at %d log bytes, under the last snapshot's %d", s.walBytes(), snap)
	}
	fill(t, s, "k", 64, 1, size)
	ck.running.Wait()
	if g := s.Generation(); g != gen+1 {
		t.Fatalf("generation %d after the log outgrew the snapshot, want %d", g, gen+1)
	}
}

// TestCheckpointsUnderWritersLoseNothing: eight Update loops run while
// the store checkpoints on its own, and two crashes — one mid-traffic,
// one at rest — lose no acknowledged write; at rest the log a restart
// replays is within one snapshot's worth (or the floor).
func TestCheckpointsUnderWritersLoseNothing(t *testing.T) {
	const writers, keys, size = 8, 16, 4096
	fsys := crashfs.New(&crashfs.Plan{Seed: 3, TornWriteProb: 0.7})
	key := func(w, k int) string { return fmt.Sprintf("w%d-k%02d", w, k) }
	value := func(v uint64) []byte {
		b := make([]byte, size)
		binary.LittleEndian.PutUint64(b, v)
		return b
	}
	var acked [writers][keys]uint64 // written by writer w only, read after it stops
	check := func(r *Store) {
		t.Helper()
		for w := range acked {
			for k, want := range acked[w] {
				got, err := r.Get(key(w, k))
				if err != nil {
					t.Fatalf("%s lost: %v", key(w, k), err)
				}
				// An Update cut by the crash may have landed: never older.
				if v := binary.LittleEndian.Uint64(got); v < want {
					t.Fatalf("%s recovered at version %d, acknowledged %d", key(w, k), v, want)
				}
			}
		}
	}
	// run drives the writers until s has committed gens more
	// generations, then crashes the disk mid-traffic or stops them first.
	run := func(s *Store, gens uint64, midTraffic bool) {
		t.Helper()
		target := s.Generation() + gens
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for v := acked[w][0] + 1; ; v++ {
					select {
					case <-stop:
						return
					default:
					}
					k := int(v % keys)
					if err := s.Update(key(w, k), func([]byte) ([]byte, error) { return value(v), nil }); err != nil {
						return // the crash landed
					}
					acked[w][k] = v
				}
			}(w)
		}
		for deadline := time.Now().Add(20 * time.Second); s.Generation() < target; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("generation %d after 20 s of writes, want %d", s.Generation(), target)
			}
		}
		if midTraffic {
			fsys.Crash()
		}
		close(stop)
		wg.Wait()
	}

	s := recoverStore(t, fsys, "state", SyncGroupCommit)
	for w := 0; w < writers; w++ {
		for k := 0; k < keys; k++ {
			if err := s.Put(key(w, k), value(0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(s, 3, true)
	s.StopCheckpoints()
	r := recoverStore(t, fsys, "state", SyncGroupCommit)
	check(r)

	run(r, 3, false)
	ck := ckpt(r)
	ck.running.Wait()
	debt, bound := r.walBytes(), max(ck.snapBytes, checkpointFloor)
	if debt > bound {
		t.Errorf("log holds %d bytes at rest, over one snapshot's worth (%d)", debt, bound)
	}
	r.StopCheckpoints()
	fsys.Crash()
	r2 := recoverStore(t, fsys, "state", SyncGroupCommit)
	defer r2.DetachWAL()
	check(r2)
	if replayed := r2.walBytes(); replayed != debt {
		t.Errorf("restart replayed a %d-byte log, want the %d bytes journaled since the checkpoint", replayed, debt)
	}
}

// TestCheckpointGrowthIsGeometric: a bulk load from empty checkpoints
// at sizes that at least double, so it takes O(log n) checkpoints and
// writes at most twice the final store (plus the floor) in snapshots.
func TestCheckpointGrowthIsGeometric(t *testing.T) {
	fsys := crashfs.New(nil)
	var snapBytes atomic.Int64
	fsys.Observe(func(op, name string, n int) {
		if op == "write" && strings.Contains(name, "/snap-") {
			snapBytes.Add(int64(n))
		}
	})
	s := recoverStore(t, fsys, "state", SyncNever)
	defer s.DetachWAL()
	fill(t, s, "key", 4096, 4096, 2048) // 8 MiB, every key new
	ckpt(s).running.Wait()
	final, gens := s.Bytes(), s.Generation()
	t.Logf("%d checkpoints, %d snapshot bytes loading a %d-byte store", gens, snapBytes.Load(), final)
	if most := uint64(bits.Len64(uint64(final/checkpointFloor))) + 1; gens < 2 || gens > most {
		t.Errorf("%d checkpoints loading %d bytes, want 2 to %d (one per doubling)", gens, final, most)
	}
	if total := snapBytes.Load(); total > 2*final+checkpointFloor {
		t.Errorf("snapshots wrote %d bytes for a %d-byte store, over twice it plus the floor", total, final)
	}
}

// TestAttachedLogNeverCheckpoints: a store journaling to a bare log
// (AttachWALOptions, the benchmark's layout) never checkpoints, however
// far its log outgrows the floor — it creates no file but its log.
func TestAttachedLogNeverCheckpoints(t *testing.T) {
	fsys := crashfs.New(nil)
	var created []string
	var mu sync.Mutex
	fsys.Observe(func(op, name string, n int) {
		if op == "create" {
			mu.Lock()
			created = append(created, name)
			mu.Unlock()
		}
	})
	s := New()
	if err := s.AttachWALOptions("flat.wal", WALOptions{FS: fsys}); err != nil {
		t.Fatal(err)
	}
	defer s.DetachWAL()
	fill(t, s, "k", 16, 4*checkpointFloor/4096+16, 4096)
	if n := s.walBytes(); n < 4*checkpointFloor {
		t.Fatalf("log is %d bytes, want 4× the floor", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if s.Generation() != 0 || len(created) != 1 || created[0] != "flat.wal" {
		t.Errorf("bare log checkpointed: generation %d, files created %v", s.Generation(), created)
	}
}

// pauseSnapshots makes every snapshot write on fsys wait until the
// returned release is called; paused receives once a writer waits.
func pauseSnapshots(fsys *crashfs.FS) (paused <-chan struct{}, release func()) {
	gate, p := make(chan struct{}), make(chan struct{}, 1)
	fsys.Observe(func(op, name string, n int) {
		if op == "write" && strings.Contains(name, "/snap-") {
			select {
			case p <- struct{}{}:
			default:
			}
			<-gate
		}
	})
	var once sync.Once
	return p, func() { once.Do(func() { close(gate) }) }
}

// TestCheckpointHoldsNoLockWritersNeed: while a checkpoint is stuck
// writing its snapshot, every shard takes updates and the log takes
// group commits — the checkpoint holds no shard lock and not the log's
// mutex while it writes.
func TestCheckpointHoldsNoLockWritersNeed(t *testing.T) {
	fsys := crashfs.New(nil)
	s := recoverStore(t, fsys, "state", SyncGroupCommit)
	defer s.DetachWAL()
	fill(t, s, "k", 512, 512, 1024) // spans the shards; over the snapshot's write buffer
	paused, release := pauseSnapshots(fsys)
	defer release()
	done := make(chan error, 1)
	go func() { done <- s.Checkpoint() }()
	<-paused

	served := make(chan error, 1)
	go func() {
		for i := 0; i < 512; i++ {
			err := s.Update(fmt.Sprintf("k-%d", i), func(old []byte) ([]byte, error) { return old[:1], nil })
			if err != nil {
				served <- err
				return
			}
		}
		served <- s.SyncWAL()
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writers blocked behind a checkpoint writing its snapshot")
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDetachWaitsForCheckpoint: DetachWAL waits for the checkpoint the
// store started on its own, and no checkpoint starts after
// StopCheckpoints, however far the log grows.
func TestDetachWaitsForCheckpoint(t *testing.T) {
	fsys := crashfs.New(nil)
	s := recoverStore(t, fsys, "state", SyncNever)
	paused, release := pauseSnapshots(fsys)
	defer release()
	fill(t, s, "k", 64, checkpointFloor/4096+1, 4096) // past the floor
	<-paused
	detached := make(chan error, 1)
	go func() { detached <- s.DetachWAL() }()
	select {
	case err := <-detached:
		t.Fatalf("DetachWAL returned (%v) while a checkpoint was writing its snapshot", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-detached; err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 0 {
		t.Errorf("detached store reports generation %d", g)
	}
	if _, err := fsys.ReadFile("state/snap-00000001"); err != nil {
		t.Errorf("the checkpoint DetachWAL waited for did not complete: %v", err)
	}

	r := recoverStore(t, fsys, "state", SyncNever)
	defer r.DetachWAL()
	r.StopCheckpoints()
	changed := 0
	fsys.Observe(func(op, name string, n int) {
		if op != "write" {
			changed++
		}
	})
	fill(t, r, "k", 64, 4*checkpointFloor/4096, 4096)
	if changed != 0 || r.Generation() != 1 {
		t.Errorf("after StopCheckpoints: %d namespace changes, generation %d (want 0, 1)", changed, r.Generation())
	}
	if err := r.Checkpoint(); !errors.Is(err, errCheckpointsStopped) {
		t.Errorf("Checkpoint after StopCheckpoints = %v", err)
	}
}

func TestRecoverRequiresDetachedStore(t *testing.T) {
	fsys := crashfs.New(nil)
	s := recoverStore(t, fsys, "state", SyncNever)
	defer s.DetachWAL()
	if err := s.Recover("other", WALOptions{FS: fsys}); !errors.Is(err, ErrWALAttached) {
		t.Errorf("second Recover = %v, want ErrWALAttached", err)
	}
	if err := New().Checkpoint(); err == nil {
		t.Error("Checkpoint without Recover succeeded")
	}
}

func TestGroupCommitConcurrentWritersShareFsyncs(t *testing.T) {
	// Correctness-flavored smoke for the group path: many goroutines on
	// the group-commit policy finish, and every write is durable.
	fsys := crashfs.New(nil)
	s := recoverStore(t, fsys, "state", SyncGroupCommit)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Put(fmt.Sprintf("w%d-%d", w, i), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	fsys.Crash()
	r := recoverStore(t, fsys, "state", SyncGroupCommit)
	defer r.DetachWAL()
	if r.Len() != workers*per {
		t.Errorf("recovered %d keys, want %d", r.Len(), workers*per)
	}
}

func benchmarkPutPolicy(b *testing.B, policy SyncPolicy) {
	dir := b.TempDir()
	s := New()
	if err := s.Recover(dir, WALOptions{Policy: policy, Interval: 50 * time.Millisecond}); err != nil {
		b.Fatal(err)
	}
	defer s.DetachWAL()
	value := bytes.Repeat([]byte{0xAB}, 256)
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := s.Put(fmt.Sprintf("key-%d", i%1024), value); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkPutSyncNever(b *testing.B)       { benchmarkPutPolicy(b, SyncNever) }
func BenchmarkPutSyncInterval(b *testing.B)    { benchmarkPutPolicy(b, SyncInterval) }
func BenchmarkPutSyncGroupCommit(b *testing.B) { benchmarkPutPolicy(b, SyncGroupCommit) }
