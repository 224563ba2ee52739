package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/wire"
)

// Admission control (DESIGN.md §15). A saturated server must degrade,
// not collapse: without a bound, every arriving frame spawns a handler
// goroutine that queues unboundedly on locks and CPU, latency grows
// without limit, and by the time a request executes its caller gave up
// long ago — work that burns trial decryptions for nobody. The
// admission queue bounds concurrently-running handlers, queues a
// bounded overflow, and sheds the rest with a constant-shape MsgBusy
// frame before the dedup cache or any handler sees them, so a shed
// request is a definite non-execution the caller may freely retry.
//
// Shed order under saturation:
//
//  1. Expired first: a queued request whose deadline budget has already
//     passed is answered busy the moment a slot frees or the queue
//     needs room — executing it would waste the server's most scarce
//     resource on a response nobody is waiting for.
//  2. Then LIFO: when a slot frees, the *newest* queued request runs.
//     Under overload FIFO is the worst possible discipline — every
//     request ages to the brink of its deadline in queue and the
//     server achieves zero goodput while doing maximal work. LIFO
//     serves requests that still have budget; the old ones it starves
//     are exactly the ones shedding would have killed anyway.
//
// Obliviousness: admission decisions depend only on arrival times,
// queue state, and the header's budget field — never on the payload —
// and every rejection is the same wire.BudgetLen-byte MsgBusy frame,
// so overload behavior cannot leak operation types (the ShapeAuditor
// pins the busy frame's length per request class on both ends).

// AdmissionConfig bounds a server's (or proxy front end's) concurrent
// work with deadline-aware load shedding. Requests beyond MaxInflight
// wait in a bounded queue served newest-first — under saturation LIFO
// preserves goodput where FIFO would age every request to its deadline
// — and requests that cannot be served are rejected with a
// constant-size busy frame (IsBusy) carrying a retry-after hint, before
// any protocol work happens. Rejections are shape-audited under the
// request's own class, so shedding leaks no operation types. The zero
// value disables admission control.
type AdmissionConfig struct {
	// MaxInflight is the number of requests handled concurrently;
	// zero or negative disables admission control entirely.
	MaxInflight int
	// MaxQueue bounds requests waiting for an inflight slot. Zero
	// means no queue: overflow is shed immediately.
	MaxQueue int
	// ShedExpired drops requests whose propagated deadline budget has
	// already expired — work the caller has abandoned — on arrival,
	// while queued, and when the queue needs room, answering them busy
	// before spending an inflight slot on them.
	ShedExpired bool
	// RetryAfter is the backoff hint carried in busy rejections
	// (default 25ms). Clients honor it as a floor on their retry
	// backoff.
	RetryAfter time.Duration
}

func (c AdmissionConfig) retryAfter() time.Duration {
	if c.RetryAfter <= 0 {
		return 25 * time.Millisecond
	}
	return c.RetryAfter
}

// LimitAdmission installs (or, with a zero MaxInflight, removes)
// admission control on the server. Safe to call before or after Serve;
// requests already past admission are unaffected.
func (s *Server) LimitAdmission(cfg AdmissionConfig) {
	if cfg.MaxInflight <= 0 {
		s.admission.Store(nil)
		return
	}
	a := &admission{cfg: cfg}
	a.busy = make([]byte, wire.BudgetLen)
	millis := cfg.retryAfter().Milliseconds()
	if millis < 1 {
		millis = 1
	}
	if millis > int64(^uint32(0)) {
		millis = int64(^uint32(0))
	}
	wire.PutBudget(a.busy, uint32(millis))
	s.admission.Store(a)
}

// AdmissionStats is a point-in-time snapshot of a server's admission
// queue, for harness assertions and operator introspection.
type AdmissionStats struct {
	// QueueDepth is the number of requests currently waiting.
	QueueDepth int64
	// Shed counts requests rejected because the queue was saturated.
	Shed int64
	// Expired counts requests rejected because their deadline budget
	// ran out before execution.
	Expired int64
}

// AdmissionStats snapshots the admission counters (zero value when
// admission control is off).
func (s *Server) AdmissionStats() AdmissionStats {
	a := s.admission.Load()
	if a == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		QueueDepth: a.depth.Load(),
		Shed:       a.shed.Load(),
		Expired:    a.expired.Load(),
	}
}

// admVerdict is one admission decision.
type admVerdict int

const (
	admitRun     admVerdict = iota // slot granted; caller must release()
	admitShed                      // queue saturated: answer busy
	admitExpired                   // deadline budget ran out: answer busy
)

// An admWaiter is one request parked in the admission queue. done is
// guarded by the admission mutex and makes wake-ups single-shot: the
// release path, the make-room shed path, and the waiter's own expiry
// timer race to decide it.
type admWaiter struct {
	ch       chan admVerdict // buffered 1
	deadline time.Time       // zero = no deadline
	done     bool
}

type admission struct {
	cfg  AdmissionConfig
	busy []byte // the constant busy payload: retry-after millis

	depth   atomic.Int64 // queued requests (gauge)
	shed    atomic.Int64
	expired atomic.Int64

	mu      sync.Mutex
	running int
	queue   []*admWaiter // arrival order: oldest first
	closed  bool
}

func (a *admission) busyPayload() []byte { return a.busy }

// admit blocks until the request may run, or returns a busy verdict.
// deadline is the request's rehydrated budget (zero = none).
func (a *admission) admit(deadline time.Time) admVerdict {
	now := time.Now()
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return admitShed
	}
	if a.cfg.ShedExpired && !deadline.IsZero() && now.After(deadline) {
		a.expired.Add(1)
		a.mu.Unlock()
		return admitExpired
	}
	if a.running < a.cfg.MaxInflight {
		a.running++
		a.mu.Unlock()
		return admitRun
	}
	if len(a.queue) >= a.cfg.MaxQueue {
		if !a.makeRoomLocked(now) {
			a.shed.Add(1)
			a.mu.Unlock()
			return admitShed
		}
	}
	w := &admWaiter{ch: make(chan admVerdict, 1), deadline: deadline}
	a.queue = append(a.queue, w)
	a.depth.Store(int64(len(a.queue)))
	a.mu.Unlock()

	if deadline.IsZero() || !a.cfg.ShedExpired {
		return <-w.ch
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case v := <-w.ch:
		return v
	case <-t.C:
		a.mu.Lock()
		if w.done {
			// release/close decided first; honor its verdict (an
			// admitRun must be run-or-released, never dropped).
			a.mu.Unlock()
			return <-w.ch
		}
		w.done = true
		a.removeLocked(w)
		a.expired.Add(1)
		a.depth.Store(int64(len(a.queue)))
		a.mu.Unlock()
		return admitExpired
	}
}

// makeRoomLocked evicts one queued waiter so a newcomer can queue:
// the oldest already-expired waiter if ShedExpired (it was dead
// anyway), else the oldest overall (LIFO service order means it was
// last in line regardless). Reports false when there is nothing to
// evict (MaxQueue == 0).
func (a *admission) makeRoomLocked(now time.Time) bool {
	if len(a.queue) == 0 {
		return false
	}
	victim := 0
	verdict := admitShed
	if a.cfg.ShedExpired {
		for i, w := range a.queue {
			if !w.deadline.IsZero() && now.After(w.deadline) {
				victim, verdict = i, admitExpired
				break
			}
		}
	}
	w := a.queue[victim]
	a.queue = append(a.queue[:victim], a.queue[victim+1:]...)
	w.done = true
	w.ch <- verdict
	if verdict == admitExpired {
		a.expired.Add(1)
	} else {
		a.shed.Add(1)
	}
	a.depth.Store(int64(len(a.queue)))
	return true
}

// removeLocked deletes w from the queue (it may already be gone if a
// concurrent decision won the race — done guards that before calling).
func (a *admission) removeLocked(w *admWaiter) {
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return
		}
	}
}

// release returns a running slot. Expired waiters are answered busy
// first; the slot then transfers to the newest surviving waiter (LIFO)
// or retires.
func (a *admission) release() {
	now := time.Now()
	a.mu.Lock()
	if a.cfg.ShedExpired {
		kept := a.queue[:0]
		for _, w := range a.queue {
			if !w.deadline.IsZero() && now.After(w.deadline) {
				w.done = true
				w.ch <- admitExpired
				a.expired.Add(1)
			} else {
				kept = append(kept, w)
			}
		}
		a.queue = kept
	}
	if n := len(a.queue); n > 0 {
		w := a.queue[n-1]
		a.queue = a.queue[:n-1]
		w.done = true
		w.ch <- admitRun // slot transfers; running count unchanged
	} else {
		a.running--
	}
	a.depth.Store(int64(len(a.queue)))
	a.mu.Unlock()
}

// close wakes every queued waiter with a busy verdict so a draining
// server's handler goroutines can exit.
func (a *admission) close() {
	a.mu.Lock()
	a.closed = true
	for _, w := range a.queue {
		w.done = true
		w.ch <- admitShed
	}
	a.queue = nil
	a.depth.Store(0)
	a.mu.Unlock()
}
