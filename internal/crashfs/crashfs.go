// Package crashfs is an in-memory filesystem with crash-fault
// injection — netsim's FaultPlan idea applied to the disk. It
// implements the vfs surface the kvstore's WAL, snapshot, and
// checkpoint code writes through, and models exactly the failure
// shapes POSIX permits:
//
//   - data written but not fsynced lives only in the "page cache":
//     a simulated crash (Crash) may write back any prefix of the
//     pending writes, tear the next one mid-buffer, and drop the
//     rest — so torn final records and lost acknowledged-but-unsynced
//     writes both occur;
//   - file creations, renames, and removals are volatile until the
//     parent directory is fsynced (SyncDir): a crash rolls the
//     directory back, resurrecting removed files and undoing renames;
//   - writes and fsyncs can fail outright with injected errors,
//     exercising the store's sticky fail-stop path.
//
// Random faults draw from one PRNG seeded with Plan.Seed, so a crash
// run is reproducible against a deterministic workload. The zero Plan
// injects no write/sync errors and drops every unsynced byte at a
// crash (the strictest legal outcome).
package crashfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"

	"ortoa/internal/vfs"
)

// ErrCrashed is returned by every operation on a handle opened before
// the last Crash: the process that held it is gone.
var ErrCrashed = errors.New("crashfs: file handle lost in crash")

// A Plan configures fault injection for an FS.
type Plan struct {
	// Seed initializes the fault PRNG.
	Seed uint64
	// WriteErrProb is the per-write probability of an injected IO
	// error (the write does not apply).
	WriteErrProb float64
	// SyncErrProb is the per-fsync probability of an injected IO
	// error. The store treats these as fatal (sticky WAL failure).
	SyncErrProb float64
	// TornWriteProb is the probability, at crash time, that the first
	// dropped pending write is partially applied — a torn write.
	TornWriteProb float64

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand

	writeErrs atomic.Int64
	syncErrs  atomic.Int64
}

func (p *Plan) init() {
	p.once.Do(func() {
		p.rng = rand.New(rand.NewPCG(p.Seed, 0x0d15c0_fa17))
	})
}

// draw reports a hit with probability prob; prob <= 0 consumes no
// randomness (netsim.FaultPlan's convention).
func (p *Plan) draw(prob float64) bool {
	if p == nil || prob <= 0 {
		return false
	}
	p.init()
	p.mu.Lock()
	hit := p.rng.Float64() < prob
	p.mu.Unlock()
	return hit
}

// intn returns a seeded value in [0, n).
func (p *Plan) intn(n int) int {
	if p == nil || n <= 0 {
		return 0
	}
	p.init()
	p.mu.Lock()
	v := p.rng.IntN(n)
	p.mu.Unlock()
	return v
}

// Stats counts injected faults.
type Stats struct {
	WriteErrs     int64 // writes failed with injected errors
	SyncErrs      int64 // fsyncs failed with injected errors
	Crashes       int64 // simulated power losses
	TornWrites    int64 // writes partially applied at a crash
	DroppedWrites int64 // pending writes discarded at a crash
	DroppedOps    int64 // dir entries rolled back at a crash
}

// pendingOp is one unsynced mutation of a file's content, replayable
// at crash time.
type pendingOp struct {
	truncate bool
	off      int64  // write offset, or truncate size
	data     []byte // written bytes (owned)
}

// A node is one file's content. Content durability is per-node and
// survives renames; name visibility is tracked by the FS namespace.
//
// durable is copy-on-write: Sync points it at the live content instead
// of cloning (aliased), and the clone happens only if a later write
// mutates bytes the last Sync covered. Append-mostly files — the WAL,
// the dominant fsync customer — therefore sync in O(1) instead of
// O(file), which keeps long group-commit runs from going quadratic.
type node struct {
	durable []byte      // content as of the last successful Sync
	aliased bool        // durable shares data's backing array
	data    []byte      // live content
	pending []pendingOp // unsynced mutations since the last Sync
}

func (n *node) applyOp(op pendingOp) {
	if op.truncate {
		// Only the slice header changes (truncateTo grows into a fresh
		// array), so an aliased durable is never mutated here.
		n.data = truncateTo(n.data, op.off)
		return
	}
	end := op.off + int64(len(op.data))
	old := int64(len(n.data))
	mutateFrom := op.off
	if old < mutateFrom {
		mutateFrom = old // the zero-fill of the hole starts here
	}
	if n.aliased && mutateFrom < int64(len(n.durable)) {
		// This write lands inside the synced prefix durable aliases:
		// give durable its own copy before the bytes change under it.
		n.durable = append([]byte(nil), n.durable...)
		n.aliased = false
	}
	if old < end {
		if end <= int64(cap(n.data)) {
			n.data = n.data[:end]
			// Reused capacity can hold stale bytes (e.g. after a
			// truncate); any hole before the write must read as zeroes.
			if op.off > old {
				clear(n.data[old:op.off])
			}
		} else {
			newCap := 2 * int64(cap(n.data))
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, n.data)
			n.data = grown
		}
	}
	copy(n.data[op.off:end], op.data)
}

func truncateTo(b []byte, size int64) []byte {
	if size <= int64(len(b)) {
		return b[:size]
	}
	grown := make([]byte, size)
	copy(grown, b)
	return grown
}

// An FS is an in-memory crash-faulty filesystem. The zero value is
// not usable; call New.
type FS struct {
	plan    atomic.Pointer[Plan]
	observe atomic.Pointer[func(op, name string, n int)]

	mu      sync.Mutex
	epoch   uint64           // bumped by Crash; invalidates open handles
	live    map[string]*node // current namespace
	durable map[string]*node // namespace as of each dir's last SyncDir

	crashes    atomic.Int64
	tornWrites atomic.Int64
	droppedW   atomic.Int64
	droppedOps atomic.Int64
}

// New returns an empty filesystem governed by plan (nil for no
// injected errors and strict crash semantics).
func New(plan *Plan) *FS {
	f := &FS{
		live:    make(map[string]*node),
		durable: make(map[string]*node),
	}
	if plan != nil {
		f.plan.Store(plan)
	}
	return f
}

// SetPlan swaps the fault plan (nil disables injection). Harness code
// uses it to keep bulk load and recovery phases fault-free.
func (f *FS) SetPlan(plan *Plan) {
	if plan == nil {
		plan = &Plan{}
	}
	f.plan.Store(plan)
}

// Observe has fn called before every operation that changes the
// filesystem — "create" (an open that may create), "write" (n bytes),
// "rename" (to name), "remove" and "syncdir" — on the caller's
// goroutine with no lock held, so fn may block that caller: the hook
// tests pause a checkpoint mid-snapshot with, or watch a directory by.
func (f *FS) Observe(fn func(op, name string, n int)) { f.observe.Store(&fn) }

func (f *FS) note(op, name string, n int) {
	if fn := f.observe.Load(); fn != nil && *fn != nil {
		(*fn)(op, name, n)
	}
}

// Stats returns cumulative fault counts.
func (f *FS) Stats() Stats {
	s := Stats{
		Crashes:       f.crashes.Load(),
		TornWrites:    f.tornWrites.Load(),
		DroppedWrites: f.droppedW.Load(),
		DroppedOps:    f.droppedOps.Load(),
	}
	if p := f.plan.Load(); p != nil {
		s.WriteErrs = p.writeErrs.Load()
		s.SyncErrs = p.syncErrs.Load()
	}
	return s
}

// Crash simulates power loss: every open handle dies, the namespace
// rolls back to its last directory-synced state, and each surviving
// file's content reverts to its last fsync plus a seeded prefix of the
// unsynced writes (the writeback the kernel happened to finish), with
// the first dropped write possibly torn mid-buffer. The filesystem is
// immediately usable again, as the restarted process would see it.
func (f *FS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epoch++
	f.crashes.Add(1)
	// Roll the namespace back to the durable directory state, counting
	// entries that change: unsynced creations/renames roll back,
	// unsynced removals resurrect.
	for name, n := range f.live {
		if f.durable[name] != n {
			f.droppedOps.Add(1)
		}
	}
	for name := range f.durable {
		if _, ok := f.live[name]; !ok {
			f.droppedOps.Add(1)
		}
	}
	f.live = make(map[string]*node, len(f.durable))
	for name, n := range f.durable {
		f.live[name] = n
	}
	// Settle each surviving file's content.
	seen := make(map[*node]bool)
	for _, n := range f.live {
		if seen[n] {
			continue
		}
		seen[n] = true
		n.data = append([]byte(nil), n.durable...)
		n.aliased = false // rollback gave data a fresh backing array
		if len(n.pending) > 0 {
			// The kernel may have written back any prefix of the
			// pending ops before power was lost.
			plan := f.plan.Load()
			keep := plan.intn(len(n.pending) + 1)
			for _, op := range n.pending[:keep] {
				n.applyOp(op)
			}
			if keep < len(n.pending) {
				next := n.pending[keep]
				if !next.truncate && len(next.data) > 1 && plan.draw(plan.tornProb()) {
					cut := 1 + plan.intn(len(next.data)-1)
					n.applyOp(pendingOp{off: next.off, data: next.data[:cut]})
					f.tornWrites.Add(1)
					keep++
				}
			}
			f.droppedW.Add(int64(len(n.pending) - keep))
			n.pending = nil
			n.durable = append([]byte(nil), n.data...)
		}
	}
}

// tornProb returns the plan's torn-write probability (0 for nil).
func (p *Plan) tornProb() float64 {
	if p == nil {
		return 0
	}
	return p.TornWriteProb
}

// notExist builds an fs.ErrNotExist-wrapping error, matching what the
// kvstore's existence probes expect from a real filesystem.
func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// OpenFile implements vfs.FS.
func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if flag&os.O_CREATE != 0 {
		f.note("create", name, 0)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.live[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", name)
		}
		n = &node{}
		f.live[name] = n
		// The new entry is volatile until its directory is synced;
		// content durability starts empty.
	} else if flag&os.O_TRUNC != 0 {
		n.data = nil
		n.aliased = false // durable keeps the old backing, alone now
		n.pending = append(n.pending, pendingOp{truncate: true})
	}
	return &File{fs: f, node: n, name: name, epoch: f.epoch}, nil
}

// Rename implements vfs.FS. The move is volatile until SyncDir.
func (f *FS) Rename(oldpath, newpath string) error {
	f.note("rename", newpath, 0)
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.live[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(f.live, oldpath)
	f.live[newpath] = n
	return nil
}

// Remove implements vfs.FS. The removal is volatile until SyncDir.
func (f *FS) Remove(name string) error {
	f.note("remove", name, 0)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.live[name]; !ok {
		return notExist("remove", name)
	}
	delete(f.live, name)
	return nil
}

// MkdirAll implements vfs.FS; the namespace is flat, so it only
// validates nothing is wildly wrong and succeeds.
func (f *FS) MkdirAll(dir string, perm os.FileMode) error { return nil }

// SyncDir implements vfs.FS: every entry change under dir (creations,
// renames, removals) becomes durable.
func (f *FS) SyncDir(dir string) error {
	f.note("syncdir", dir, 0)
	f.mu.Lock()
	defer f.mu.Unlock()
	for name := range f.durable {
		if vfs.Dir(name) == dir {
			if _, ok := f.live[name]; !ok {
				delete(f.durable, name)
			}
		}
	}
	for name, n := range f.live {
		if vfs.Dir(name) == dir {
			f.durable[name] = n
		}
	}
	return nil
}

// A File is an open crashfs handle.
type File struct {
	fs    *FS
	node  *node
	name  string
	epoch uint64

	mu     sync.Mutex
	pos    int64
	closed bool
}

// lock takes the handle's and the filesystem's locks and checks the
// handle is still usable. The epoch is checked under the filesystem's
// lock, so an operation either completes before a Crash or fails with
// ErrCrashed: a dead process's write never lands on its successor's
// disk, and its fsync never vouches for bytes the crash dropped. On
// success the caller unlocks.
func (h *File) lock() error {
	h.mu.Lock()
	h.fs.mu.Lock()
	var err error
	switch {
	case h.closed:
		err = fmt.Errorf("crashfs: %s: file already closed", h.name)
	case h.epoch != h.fs.epoch:
		err = ErrCrashed
	default:
		return nil
	}
	h.unlock()
	return err
}

func (h *File) unlock() {
	h.fs.mu.Unlock()
	h.mu.Unlock()
}

// Name implements vfs.File.
func (h *File) Name() string { return h.name }

// Size implements vfs.File.
func (h *File) Size() (int64, error) {
	if err := h.lock(); err != nil {
		return 0, err
	}
	defer h.unlock()
	return int64(len(h.node.data)), nil
}

// Read implements io.Reader.
func (h *File) Read(p []byte) (int, error) {
	if err := h.lock(); err != nil {
		return 0, err
	}
	defer h.unlock()
	if h.pos >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[h.pos:])
	h.pos += int64(n)
	return n, nil
}

// Write implements io.Writer. The bytes land in the live content and
// a pending op, durable only after Sync.
func (h *File) Write(p []byte) (int, error) {
	h.fs.note("write", h.name, len(p))
	if err := h.lock(); err != nil {
		return 0, err
	}
	defer h.unlock()
	plan := h.fs.plan.Load()
	if plan != nil && plan.draw(plan.WriteErrProb) {
		plan.writeErrs.Add(1)
		return 0, fmt.Errorf("crashfs: %s: injected write error", h.name)
	}
	op := pendingOp{off: h.pos, data: append([]byte(nil), p...)}
	h.node.applyOp(op)
	h.node.pending = append(h.node.pending, op)
	h.pos += int64(len(p))
	return len(p), nil
}

// Seek implements io.Seeker.
func (h *File) Seek(offset int64, whence int) (int64, error) {
	if err := h.lock(); err != nil {
		return 0, err
	}
	defer h.unlock()
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = h.pos + offset
	case io.SeekEnd:
		abs = int64(len(h.node.data)) + offset
	default:
		return 0, fmt.Errorf("crashfs: %s: bad whence %d", h.name, whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("crashfs: %s: negative seek", h.name)
	}
	h.pos = abs
	return abs, nil
}

// Truncate implements vfs.File; volatile until Sync like any write.
func (h *File) Truncate(size int64) error {
	if err := h.lock(); err != nil {
		return err
	}
	defer h.unlock()
	op := pendingOp{truncate: true, off: size}
	h.node.applyOp(op)
	h.node.pending = append(h.node.pending, op)
	return nil
}

// Sync implements vfs.File: the live content becomes the durable
// content (or an injected fsync error is returned and nothing
// changes — the caller cannot know how much reached the disk, exactly
// like a real failed fsync).
func (h *File) Sync() error {
	if err := h.lock(); err != nil {
		return err
	}
	defer h.unlock()
	plan := h.fs.plan.Load()
	if plan != nil && plan.draw(plan.SyncErrProb) {
		plan.syncErrs.Add(1)
		return fmt.Errorf("crashfs: %s: injected fsync error", h.name)
	}
	// Copy-on-write: alias the live content instead of cloning it. A
	// later write below this length clones first (see applyOp), so the
	// durable view stays exactly the content as of this Sync.
	h.node.durable = h.node.data
	h.node.aliased = true
	h.node.pending = nil
	return nil
}

// Close implements io.Closer.
func (h *File) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("crashfs: %s: file already closed", h.name)
	}
	h.closed = true
	return nil
}

// ReadFileDurable returns the bytes path would hold after a crash
// right now (last-synced content), without disturbing anything — the
// inspection hook crash-shape tests are built on. The second result
// reports whether the entry itself would survive (directory synced).
func (f *FS) ReadFileDurable(path string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.durable[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), n.durable...), true
}

// ReadFile returns path's live content.
func (f *FS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.live[path]
	if !ok {
		return nil, notExist("read", path)
	}
	return append([]byte(nil), n.data...), nil
}
