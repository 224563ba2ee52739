package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/obs/trace"
)

// A counterTable is the proxy's only persistent state for LBL-ORTOA:
// the per-key access counter (§5.3.1 — 8 bytes per key, ~8 MB for 1M
// objects). It is also where a key's accesses queue: two concurrent
// accesses to one key must not build tables from the same counter value,
// or the second would target labels the first already replaced, so a key
// has one owner at a time and whatever else wants it waits on its entry,
// in the order it arrived.
type counterTable struct {
	shards   [NumRanges]counterShard // lock stripes, one per counter range
	maxChain int                     // most held accesses that leave as one chain; below 2, one at a time
	expired  atomic.Int64            // held accesses answered unsent: deadline passed before their chain left
}

type counterShard struct {
	mu      sync.Mutex
	entries map[string]*counterEntry
}

type counterEntry struct {
	mu    sync.Mutex   // guards owned and held; never held across a round trip
	owned bool         // a round — or load, or save — has the key
	held  []*keyWaiter // what waits for it, in admission order

	// ct belongs to the key's owner, who alone reads and writes it.
	ct uint64
}

// A keyWaiter is one caller in line for a key: a single access, or
// (own) a caller that wants the key to itself — a multi-key round, load,
// save — and uses none of the access's fields.
type keyWaiter struct {
	acc      [1]roundAccess  // the access, then its outcome; an array so that a chain of one is its round's accesses as it stands
	ctx      context.Context // its caller's
	admitted time.Time       // when it arrived, on the stage family's clock
	sp       *trace.Span     // its wait, under the caller's span
	own      bool
	// wake is closed when the wait is over. chain is then the waiters,
	// this one first, that the key was handed to and that this one
	// carries through a round (alone, if own) — or nil: another access
	// carried this one, and its outcome is in acc.
	wake  chan struct{}
	chain []*keyWaiter
}

func newCounterTable() *counterTable {
	t := &counterTable{}
	for i := range t.shards {
		t.shards[i].entries = make(map[string]*counterEntry)
	}
	return t
}

// entry returns key's counter entry, created at counter 0.
func (t *counterTable) entry(key string) *counterEntry {
	sh := &t.shards[RangeOf(key)]
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		e = &counterEntry{}
		sh.entries[key] = e
	}
	sh.mu.Unlock()
	return e
}

// take gives the key to w's caller if no one has it. Otherwise w joins
// the line and take reports false: its caller waits on w.wake.
func (e *counterEntry) take(w *keyWaiter) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.owned {
		e.owned = true
		return true
	}
	w.wake = make(chan struct{})
	w.sp = trace.FromContext(w.ctx).Child("key_wait")
	e.held = append(e.held, w)
	return false
}

// acquire returns key's entry once the caller owns it, after whatever
// was in line for it first. The caller must release it.
func (t *counterTable) acquire(key string) *counterEntry {
	e := t.entry(key)
	if w := (&keyWaiter{own: true}); !e.take(w) {
		<-w.wake
	}
	return e
}

// release gives e's key up. If anything waits, the key passes on still
// owned — so an arrival is in the line already or behind what leaves now,
// never in between — to the head of the line: alone if it wants the key
// to itself, else with the single accesses behind it, up to maxChain in
// all, which it carries as one chain (LBLProxy.lead). Accesses whose
// deadline has passed are answered unsent first — a definite outcome
// (IsDeadlineExpired), and no trial decryptions for a caller that has
// given up — and a chain that leaves empty serves the next in line.
func (t *counterTable) release(e *counterEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.held) > 0 {
		n := 1
		for !e.held[0].own && n < len(e.held) && n < t.maxChain && !e.held[n].own {
			n++
		}
		chain := make([]*keyWaiter, 0, n)
		for _, w := range e.held[:n] {
			w.sp.End()
			if !w.own && w.ctx.Err() != nil {
				w.acc[0].err = errDeadlineBeforeBuild
				t.expired.Add(1)
				close(w.wake)
				continue
			}
			chain = append(chain, w)
		}
		e.held = e.held[n:]
		if len(chain) > 0 {
			chain[0].chain = chain
			close(chain[0].wake)
			return
		}
	}
	e.held, e.owned = nil, false // and the line's backing array goes
}

// Len returns the number of tracked keys.
func (t *counterTable) Len() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += len(t.shards[i].entries)
		t.shards[i].mu.Unlock()
	}
	return n
}

// counterMagic heads the counter snapshot format.
var counterMagic = [8]byte{'O', 'R', 'T', 'O', 'A', 'C', 'T', '1'}

// save serializes all counters (§5.3.1), so that a restarted proxy
// resumes each key where it was instead of rebasing it on its first
// access (reconcile.go).
//
// A save may run live, alongside accesses: it writes the keys that
// existed when it began — a key first accessed meanwhile is left to the
// next save — and captures each counter between its rounds, so it
// always loads, but it can trail the server by the accesses that
// completed after their key was captured. A proxy resuming from it
// closes that gap the same way.
func (t *counterTable) save(w io.Writer) error {
	// The stripe locks are not held while waiting for a key: the key's
	// owner may be a multi-key round about to look up its next key in
	// the same stripe.
	var keys []string
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for key := range sh.entries {
			keys = append(keys, key)
		}
		sh.mu.Unlock()
	}
	bw := bufio.NewWriter(w)
	buf := binary.LittleEndian.AppendUint64(append([]byte(nil), counterMagic[:]...), uint64(len(keys)))
	for _, key := range keys {
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		e := t.acquire(key)
		ct := e.ct
		t.release(e)
		buf = binary.AppendUvarint(buf[:0], uint64(len(key)))
		buf = append(buf, key...)
		buf = binary.LittleEndian.AppendUint64(buf, ct)
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// maxCounterEntries bounds the entry count a snapshot may claim. A
// count above it (≈268M keys, a multi-gigabyte snapshot) means the
// header is corrupt, not that the deployment is large; rejecting it
// up front keeps a flipped bit in the count field from turning load
// into an unbounded allocation loop.
const maxCounterEntries = 1 << 28

// load restores counters saved with save, replacing current entries
// for the same keys. The snapshot is parsed and validated in full
// before any counter is applied: counters the server has moved past
// are the one piece of proxy state that cannot be regenerated
// (§5.3.1), so a truncated or corrupt snapshot must reject cleanly
// rather than leave the table half-updated with no way to tell which
// keys were touched.
func (t *counterTable) load(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("core: reading counter magic: %w", err)
	}
	if magic != counterMagic {
		return fmt.Errorf("core: bad counter snapshot magic %q", magic[:])
	}
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return fmt.Errorf("core: reading counter count: %w", err)
	}
	n := binary.LittleEndian.Uint64(buf[:])
	if n > maxCounterEntries {
		return fmt.Errorf("core: counter snapshot claims %d entries (cap %d); header corrupt", n, maxCounterEntries)
	}
	type kv struct {
		key string
		ct  uint64
	}
	capHint := n
	if capHint > 4096 {
		capHint = 4096 // trust the data, not the claimed count
	}
	parsed := make([]kv, 0, capHint)
	for i := uint64(0); i < n; i++ {
		klen, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("core: counter entry %d: %w", i, err)
		}
		if klen > 1<<20 {
			return fmt.Errorf("core: counter entry %d key length %d implausible", i, klen)
		}
		key := make([]byte, klen)
		if _, err := io.ReadFull(br, key); err != nil {
			return fmt.Errorf("core: counter entry %d key: %w", i, err)
		}
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("core: counter entry %d value: %w", i, err)
		}
		parsed = append(parsed, kv{string(key), binary.LittleEndian.Uint64(buf[:])})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("core: trailing data after %d counter entries", n)
	}
	for _, e := range parsed {
		ent := t.acquire(e.key)
		ent.ct = e.ct
		t.release(ent)
	}
	return nil
}
