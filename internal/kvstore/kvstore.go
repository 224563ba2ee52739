// Package kvstore is the in-memory key-value store the untrusted ORTOA
// server keeps its encoded records in. It plays the role Redis plays in
// the paper's deployment (§4.1): a fast GET/PUT map under the server
// process, oblivious to what the bytes mean.
//
// The store is sharded to keep concurrent accesses from serializing on
// one mutex, and tracks byte-level statistics so experiments can report
// server storage exactly as §5.3.1 computes it.
package kvstore

import (
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// ErrNotFound reports a Get or Update of a key that is not present.
var ErrNotFound = errors.New("kvstore: key not found")

const numShards = 256

// A Store is a sharded in-memory byte-string map, safe for concurrent
// use. Recover makes it durable in a state directory that it
// checkpoints on its own (durability.go); AttachWALOptions journals to a
// bare log that nothing ever checkpoints (wal.go).
type Store struct {
	seed    maphash.Seed
	shards  [numShards]shard
	metrics atomic.Pointer[storeMetrics]

	walMu sync.Mutex
	wal   *wal
	ckpt  *checkpointer // non-nil after Recover

	walReplayed atomic.Int64 // records replayed at recovery
}

type shard struct {
	mu    sync.RWMutex
	items map[string][]byte
	bytes int64 // sum of key+value lengths in this shard
}

// New returns an empty Store.
func New() *Store {
	s := &Store{seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].items = make(map[string][]byte)
	}
	return s
}

func (s *Store) shardFor(key string) *shard {
	h := maphash.String(s.seed, key)
	return &s.shards[h%numShards]
}

// Get returns a copy of the value stored under key.
func (s *Store) Get(key string) ([]byte, error) {
	return s.AppendGet(nil, key)
}

// AppendGet appends a copy of the value stored under key to dst, so a
// caller that reads records at a steady rate can reuse one buffer.
func (s *Store) AppendGet(dst []byte, key string) ([]byte, error) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.items[key]
	if !ok {
		return dst, ErrNotFound
	}
	return append(dst, v...), nil
}

// Put stores a copy of value under key, replacing any previous value.
// With a WAL attached the mutation is journaled before it is applied,
// so an error means the store is unchanged; under SyncGroupCommit Put
// returns only after the record is on stable storage.
func (s *Store) Put(key string, value []byte) error {
	lsn, err := s.put(key, value)
	if err != nil {
		return err
	}
	// The durability wait happens after the shard lock is released:
	// fsync latency must never serialize a shard, and group commit
	// needs concurrent writers parked together to share the fsync.
	return s.waitDurable(lsn)
}

// A KV is one key and value of a PutBatch.
type KV struct {
	Key   string
	Value []byte
}

// PutBatch stores each pair as Put does, in order, and waits for
// durability once, on the last pair's commit point: under
// SyncGroupCommit a batch costs one fsync wait, not one a pair, and
// when PutBatch returns nil every pair is as durable as Put would have
// left it. A pair that fails to journal stops the batch there: the pairs
// before it stay applied, it and those after it are not. A failed
// durability wait fails the whole batch, as it fails a Put.
func (s *Store) PutBatch(kvs []KV) error {
	var last uint64
	for _, kv := range kvs {
		lsn, err := s.put(kv.Key, kv.Value)
		if err != nil {
			return err
		}
		last = max(last, lsn)
	}
	return s.waitDurable(last)
}

// put stores a copy of value under key and returns its journal LSN
// without waiting for it to be durable.
func (s *Store) put(key string, value []byte) (uint64, error) {
	v := make([]byte, len(value))
	copy(v, value)
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	lsn, err := s.journal(key, v)
	if err != nil {
		return 0, err
	}
	if old, ok := sh.items[key]; ok {
		sh.bytes -= int64(len(old))
	} else {
		sh.bytes += int64(len(key))
	}
	sh.items[key] = v
	sh.bytes += int64(len(v))
	return lsn, nil
}

// applyPut mutates without journaling (WAL replay).
func (s *Store) applyPut(key string, value []byte) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if old, ok := sh.items[key]; ok {
		sh.bytes -= int64(len(old))
	} else {
		sh.bytes += int64(len(key))
	}
	sh.items[key] = value
	sh.bytes += int64(len(value))
	sh.mu.Unlock()
}

// journal appends a mutation to the WAL, if attached, returning its
// LSN. Called with the key's shard lock held, so replay order per key
// matches application order. A failure is sticky (see wal.fail):
// callers must not apply the mutation, keeping memory and log
// consistent — "error ⇒ store unchanged" is what lets the proxy treat
// a rejected round as never executed.
func (s *Store) journal(key string, value []byte) (uint64, error) {
	w, ck := s.attached()
	if w == nil {
		return 0, nil
	}
	lsn, err := w.append(key, value)
	if m := s.metrics.Load(); m != nil {
		m.walAppends.Inc()
		if err != nil {
			m.walAppendErrors.Inc()
		}
	}
	if err == nil && ck != nil {
		s.maybeCheckpoint(ck, w.bytes.Load())
	}
	return lsn, err
}

// Update applies fn to the value stored under key while holding the
// shard lock, storing fn's result. It returns ErrNotFound if key is
// absent. The protocols use Update for their atomic
// read-decrypt-replace step so two concurrent accesses to the same
// object cannot interleave (the LBL server's decrypt-and-install must
// see a consistent label array). Like Put, a journaling error leaves
// the record untouched, and under SyncGroupCommit Update returns only
// after the mutation's commit point — this is where durable-on-ack
// threads into the LBL access path.
func (s *Store) Update(key string, fn func(old []byte) ([]byte, error)) error {
	sh := s.shardFor(key)
	sh.mu.Lock()
	old, ok := sh.items[key]
	if !ok {
		sh.mu.Unlock()
		return ErrNotFound
	}
	nv, err := fn(old)
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	lsn, err := s.journal(key, nv)
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	sh.bytes += int64(len(nv)) - int64(len(old))
	sh.items[key] = nv
	sh.mu.Unlock()
	return s.waitDurable(lsn)
}

// Len returns the number of keys in the store.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.items)
		sh.mu.RUnlock()
	}
	return n
}

// Bytes returns the total size of all keys and values, the quantity
// the paper's storage cost analysis (§5.3.1, §6.3.3) prices.
func (s *Store) Bytes() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.bytes
		sh.mu.RUnlock()
	}
	return n
}

// Range calls fn for every key/value pair until fn returns false. The
// value passed to fn must not be retained or modified. Range holds one
// shard lock at a time, so it sees a consistent view per shard but not
// across shards.
func (s *Store) Range(fn func(key string, value []byte) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.items {
			if !fn(k, v) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}
