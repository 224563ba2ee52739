package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// A counterTable is the proxy's only persistent state for LBL-ORTOA:
// the per-key access counter (§5.3.1 — 8 bytes per key, ~8 MB for 1M
// objects). It also provides the per-key mutual exclusion LBL-ORTOA
// needs: two concurrent accesses to one key must not build tables from
// the same counter value, or the second would target labels the first
// already replaced.
type counterTable struct {
	shards [NumRanges]counterShard // lock stripes, one per counter range
}

type counterShard struct {
	mu      sync.Mutex
	entries map[string]*counterEntry
}

type counterEntry struct {
	mu sync.Mutex
	ct uint64
	// pending, when positive, records that a round whose chain for this
	// key was pending accesses long, keyed at counters ct … ct+pending-1,
	// has an unknown outcome (the transport failed ambiguously). The next
	// access to the key must settle it — with a probe at ct, pending.go —
	// before ct can be trusted again. probed records that such a probe
	// failed ambiguously itself and may have run, which matters to a chain
	// longer than one; it is never set while pending is 0. Guarded by mu.
	pending int
	probed  bool
}

func newCounterTable() *counterTable {
	t := &counterTable{}
	for i := range t.shards {
		t.shards[i].entries = make(map[string]*counterEntry)
	}
	return t
}

func (t *counterTable) shardFor(key string) *counterShard {
	return &t.shards[RangeOf(key)]
}

// acquire locks key's counter and returns its entry. The caller must
// call entry.mu.Unlock when the access completes.
func (t *counterTable) acquire(key string) *counterEntry {
	sh := t.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		e = &counterEntry{}
		sh.entries[key] = e
	}
	sh.mu.Unlock()
	e.mu.Lock()
	return e
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

// save serializes all counters. The proxy's counters are the only
// state LBL-ORTOA cannot regenerate (§5.3.1): losing them desynchronizes
// the label schedule from the server's records, so deployments persist
// them across proxy restarts.
//
// Snapshotting concurrent with in-flight accesses captures each
// counter either before or after its access — safe only if the server
// saw no later access; quiesce the proxy before saving, as ortoa-proxy
// does on shutdown.
func (t *counterTable) save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(counterMagic[:]); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(t.Len()))
	if _, err := bw.Write(cnt[:]); err != nil {
		return err
	}
	written := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for key, e := range sh.entries {
			var lenBuf [binary.MaxVarintLen64]byte
			n := binary.PutUvarint(lenBuf[:], uint64(len(key)))
			if _, err := bw.Write(lenBuf[:n]); err != nil {
				sh.mu.Unlock()
				return err
			}
			if _, err := bw.WriteString(key); err != nil {
				sh.mu.Unlock()
				return err
			}
			e.mu.Lock()
			ct := e.ct
			e.mu.Unlock()
			binary.LittleEndian.PutUint64(cnt[:], ct)
			if _, err := bw.Write(cnt[:]); err != nil {
				sh.mu.Unlock()
				return err
			}
			written++
		}
		sh.mu.Unlock()
	}
	if got := t.Len(); got != written {
		return fmt.Errorf("core: counters mutated during save (%d vs %d)", written, got)
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
		ent.pending, ent.probed = 0, false // a restored counter supersedes any ambiguous round
		ent.mu.Unlock()
	}
	return nil
}
