package transport

import "sync"

// The at-most-once dedup cache. The server keeps, per client session,
// the responses of recently completed requests keyed by request id. A
// retried request — same (session id, request id), possibly arriving
// over a different pooled connection — finds its entry here and is
// answered by replaying the cached response instead of re-executing
// the handler. That is what makes retrying a side-effecting request
// (an LBL access that advances a label counter) safe: however many
// times a request is sent, the handler runs at most once.
//
// The cache is bounded on three axes so a server cannot be grown
// without limit by misbehaving or long-lived clients:
//
//   - sessions: at most dedupSessionCap sessions, evicted LRU;
//   - bytes per session: cached response payloads are capped at
//     dedupSessionBytes. Over budget, the oldest completed responses
//     are reduced to tombstones: the payload bytes are dropped but the
//     fact of execution is kept, so a late replay is answered with
//     ReplayEvicted instead of being silently re-executed. "Executed
//     but response lost" is recoverable for stateful callers (the LBL
//     proxy commits its counter on it); silent re-execution is not.
//   - entries per session: at most dedupEntryCap entries including
//     tombstones; the oldest are then forgotten entirely.
//
// In-flight entries (handler still running) are never evicted; a
// replay that arrives while the original executes blocks on the
// entry's done channel and sees the same response. A replay of a
// fully forgotten id re-executes the handler — the one hole in the
// guarantee. LBL access handlers are self-fencing (a table keyed at
// counter ct only applies when the server holds exactly the ct
// labels), so even that re-execution cannot double-apply; DESIGN.md
// §9 discusses the failure model.
type dedupCache struct {
	mu       sync.Mutex
	sessions map[uint64]*dedupSession
	order    []uint64 // session ids, least recently used first
}

// Cache bounds; vars rather than consts so tests can shrink them.
var (
	dedupSessionCap   = 64
	dedupEntryCap     = 4096
	dedupSessionBytes = 8 << 20
)

type dedupSession struct {
	mu        sync.Mutex
	entries   map[uint64]*dedupEntry
	order     []uint64 // completed request ids, oldest first
	bytes     int      // sum of cached (non-tombstoned) response payload sizes
	evictHead int      // index into order of the oldest non-tombstoned entry
}

// A dedupEntry's flags/resp/evicted are written under the session
// mutex; readers that did not execute the handler themselves must hold
// it too (eviction can tombstone an entry long after done closes).
type dedupEntry struct {
	done    chan struct{} // closed once flags/resp are set
	flags   byte
	resp    []byte
	evicted bool // executed, but the response bytes were dropped
}

func newDedupCache() *dedupCache {
	return &dedupCache{sessions: make(map[uint64]*dedupSession)}
}

// begin claims (sid, id) for execution. isNew reports whether the
// caller won the claim and must execute the handler and then call
// sess.complete; otherwise the entry belongs to a prior arrival and
// the caller should wait on entry.done and replay entry's response.
func (d *dedupCache) begin(sid, id uint64) (sess *dedupSession, entry *dedupEntry, isNew bool) {
	d.mu.Lock()
	sess = d.sessions[sid]
	if sess == nil {
		sess = &dedupSession{entries: make(map[uint64]*dedupEntry)}
		d.sessions[sid] = sess
		d.order = append(d.order, sid)
		for len(d.order) > dedupSessionCap {
			delete(d.sessions, d.order[0])
			d.order = d.order[1:]
		}
	} else {
		d.touch(sid)
	}
	d.mu.Unlock()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if e, ok := sess.entries[id]; ok {
		return sess, e, false
	}
	entry = &dedupEntry{done: make(chan struct{})}
	sess.entries[id] = entry
	return sess, entry, true
}

// touch moves sid to the most-recently-used end of the session order.
// Called with d.mu held.
func (d *dedupCache) touch(sid uint64) {
	for i, s := range d.order {
		if s == sid {
			copy(d.order[i:], d.order[i+1:])
			d.order[len(d.order)-1] = sid
			return
		}
	}
}

// complete records the response for a previously begun entry, wakes
// any replays blocked on it, and enforces the session budgets: over
// the byte budget, the oldest completed responses are tombstoned
// (payload dropped, execution remembered); over the entry cap, the
// oldest entries are forgotten entirely. The newest entry is exempt
// from both, so the response just cached always survives long enough
// to answer an immediate retry.
func (s *dedupSession) complete(id uint64, e *dedupEntry, flags byte, resp []byte) {
	s.mu.Lock()
	e.flags = flags
	e.resp = resp
	s.order = append(s.order, id)
	s.bytes += len(resp)
	for s.evictHead < len(s.order)-1 && s.bytes > dedupSessionBytes {
		if oe, ok := s.entries[s.order[s.evictHead]]; ok && !oe.evicted {
			s.bytes -= len(oe.resp)
			oe.resp = nil
			oe.evicted = true
		}
		s.evictHead++
	}
	for len(s.order) > dedupEntryCap && len(s.order) > 1 {
		old := s.order[0]
		s.order = s.order[1:]
		if s.evictHead > 0 {
			s.evictHead--
		}
		if oe, ok := s.entries[old]; ok {
			if !oe.evicted {
				s.bytes -= len(oe.resp)
			}
			delete(s.entries, old)
		}
	}
	s.mu.Unlock()
	close(e.done)
}

// replay returns the completed entry's cached outcome. Callers wait
// on e.done first; the lock is still required because eviction can
// tombstone the entry at any later point. Tombstoned entries replay
// as an error response carrying replayEvictedMsg — "executed, but the
// response bytes are gone" — which Ambiguous reports as an unknown
// outcome: the handler ran, and whether it succeeded is lost.
func (s *dedupSession) replay(e *dedupEntry) (flags byte, resp []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.evicted {
		return flagResponse | flagError, []byte(replayEvictedMsg)
	}
	return e.flags, e.resp
}
