package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
)

// Aggregation defaults; see AggregatorConfig.
const (
	DefaultAggMaxBatch      = 64
	defaultAggPendingFactor = 4
)

// ErrAggregatorOverloaded rejects an access admitted beyond the
// aggregator's pending budget — the backpressure signal. The access
// was not executed; the caller may retry after backing off.
var ErrAggregatorOverloaded = errors.New("core: aggregator overloaded: pending-access budget exhausted")

// ErrAggregatorClosed rejects accesses arriving after Close.
var ErrAggregatorClosed = errors.New("core: aggregator closed")

// A BatchAccessor executes many oblivious accesses as one round trip,
// reporting each access's outcome individually. *LBLProxy implements
// it via AccessBatchResults.
type BatchAccessor interface {
	AccessBatchResults(ctx context.Context, ops []BatchOp) ([]BatchResult, AccessStats)
}

// AggregatorConfig tunes an Aggregator.
type AggregatorConfig struct {
	// Window is the longest an access waits for company: the window
	// dispatches at most this long after its first access arrives.
	// It is the latency the slowest-coalescing access pays to buy the
	// round-trip amortization; it must be positive.
	Window time.Duration
	// MaxBatch dispatches a window early once it holds this many
	// accesses (default DefaultAggMaxBatch). It bounds the batch frame
	// size and the tail latency added by table-build time.
	MaxBatch int
	// MaxPending is the admission budget: the total number of accesses
	// admitted but not yet answered — waiting in the open window or in
	// flight in a dispatched batch. An access arriving beyond it is
	// rejected with ErrAggregatorOverloaded instead of queueing
	// unboundedly (default 4×MaxBatch).
	MaxPending int
	// BrownoutPending is the pending depth at which new windows open in
	// brownout mode: a larger size trigger (BrownoutMaxBatch) and a
	// quarter-length time trigger, trading per-access coalescing
	// latency for throughput while the backlog drains. Default
	// MaxPending/2.
	BrownoutPending int
	// BrownoutMaxBatch is the size trigger for windows opened under
	// brownout. Default 2×MaxBatch.
	BrownoutMaxBatch int
}

func (c AggregatorConfig) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return DefaultAggMaxBatch
}

func (c AggregatorConfig) maxPending() int {
	if c.MaxPending > 0 {
		return c.MaxPending
	}
	return defaultAggPendingFactor * c.maxBatch()
}

func (c AggregatorConfig) brownoutPending() int {
	if c.BrownoutPending > 0 {
		return c.BrownoutPending
	}
	return (c.maxPending() + 1) / 2
}

func (c AggregatorConfig) brownoutMaxBatch() int {
	if c.BrownoutMaxBatch > 0 {
		return c.BrownoutMaxBatch
	}
	return 2 * c.maxBatch()
}

// An Aggregator multiplexes concurrent single-object accesses from
// independent sessions into shared oblivious batch round trips: the
// first access opens a time/size window, later arrivals join it in
// FIFO order, and when the window closes — its timer fires or it
// reaches MaxBatch — one session issues the whole window as a single
// round (one request, one response) and demultiplexes the per-access results
// (and per-access errors) back to the waiters.
//
// The hand-off mirrors the WAL's group commit (DESIGN.md §10): the
// closer becomes the window's leader while a fresh window opens
// immediately for new arrivals, so dispatch never blocks admission
// and windows pipeline behind one another.
//
// Aggregator implements Accessor, so it drops into the proxy service
// in place of the per-request LBLProxy (see Client.ServeProxy).
// Security: the server sees exactly the batch frames a native
// AccessBatch of the same sizes would produce — aggregation changes
// who contributed the accesses, never their shape on the wire
// (TestObliviousnessAggregatedWindow).
type Aggregator struct {
	cfg     AggregatorConfig
	backend BatchAccessor
	stageObs

	mu      sync.Mutex
	cur     *aggWindow // open window accepting arrivals, nil if none
	pending int        // admitted accesses not yet answered
	closed  bool

	accesses  atomic.Int64 // admitted accesses
	batches   atomic.Int64 // windows dispatched
	rejected  atomic.Int64 // accesses refused by backpressure
	brownouts atomic.Int64 // windows opened in brownout mode
	expired   atomic.Int64 // waiters answered unsent: deadline passed in the window

	mx aggObs
}

// An aggWaiter is one admitted access: its op and the buffered
// channel its session blocks on.
type aggWaiter struct {
	op       BatchOp
	ch       chan BatchResult
	ctx      context.Context // caller context; a passed deadline drops the access unsent
	admitted time.Time       // when the access joined the window, on the stage family's clock
	sp       *trace.Span     // agg_session span, ended when the result is delivered
}

// An aggWindow is one open or in-flight aggregation window. waiters
// is append-only in admission order (FIFO — results demultiplex by
// index, so no session can be starved or reordered past another).
type aggWindow struct {
	waiters    []aggWaiter
	limit      int // size trigger, fixed at window open (brownout-aware)
	timer      *time.Timer
	sp         *trace.Span // agg_window span, opened with the window
	dispatched bool        // detached from the aggregator; owned by its leader
}

// NewAggregator returns an aggregator dispatching to backend. Window
// must be positive.
func NewAggregator(cfg AggregatorConfig, backend BatchAccessor) *Aggregator {
	if cfg.Window <= 0 {
		panic("core: AggregatorConfig.Window must be positive")
	}
	return &Aggregator{cfg: cfg, backend: backend, stageObs: stageObs{stages: aggStages(nil)}}
}

// Access admits one oblivious access into the current window and
// blocks until the window's batch round trip answers it. It is the
// Accessor implementation the proxy service calls once per end-user
// request. AccessStats is zero: the frame's preparation and response
// bytes belong to the shared batch, not to any single access.
func (a *Aggregator) Access(op Op, key string, newValue []byte) ([]byte, AccessStats, error) {
	return a.AccessContext(context.Background(), op, key, newValue)
}

// AccessContext is Access with a caller context. When ctx carries a
// trace span (a traced end-user request through the proxy front end),
// the access's agg_session span — its wait for the window plus the
// shared round trip — is recorded in that request's own trace;
// otherwise it parents on the window's agg_window span, so the window
// trace shows one window span parenting its N session spans.
func (a *Aggregator) AccessContext(ctx context.Context, op Op, key string, newValue []byte) ([]byte, AccessStats, error) {
	var stats AccessStats
	ch := make(chan BatchResult, 1)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, stats, ErrAggregatorClosed
	}
	if a.pending >= a.cfg.maxPending() {
		a.mu.Unlock()
		a.rejected.Add(1)
		return nil, stats, ErrAggregatorOverloaded
	}
	a.pending++
	a.accesses.Add(1)
	a.mx.queueDepth.Set(int64(a.pending))
	w := a.cur
	if w == nil {
		// First access of a new window: arm the time trigger. The
		// window's triggers are fixed at open from the pending depth —
		// under brownout pressure, a bigger size trigger and a shorter
		// time trigger amortize the round trip across more accesses and
		// drain the backlog before waiters age to deadline-death.
		limit, window := a.cfg.maxBatch(), a.cfg.Window
		if a.pending >= a.cfg.brownoutPending() {
			limit, window = a.cfg.brownoutMaxBatch(), a.cfg.Window/4
			if window <= 0 {
				window = time.Millisecond
			}
			a.brownouts.Add(1)
		}
		w = &aggWindow{limit: limit, sp: a.tracer.Load().StartRoot("agg_window")}
		w.timer = time.AfterFunc(window, func() { a.timerFire(w) })
		a.cur = w
	}
	var sp *trace.Span
	if p := trace.FromContext(ctx); p != nil {
		sp = p.Child("agg_session")
	} else {
		sp = w.sp.Child("agg_session")
	}
	w.waiters = append(w.waiters, aggWaiter{op: BatchOp{Op: op, Key: key, Value: newValue},
		ch: ch, ctx: ctx, admitted: a.stages.Now(), sp: sp})
	full := len(w.waiters) >= w.limit
	if full {
		a.detachLocked(w)
	}
	a.mu.Unlock()
	if full {
		// Size trigger: the filling session is the leader — it issues
		// the batch itself while a.cur == nil lets the next arrival
		// open a fresh window concurrently (leader/follower hand-off).
		a.dispatch(w)
	}
	res := <-ch
	return res.Value, stats, res.Err
}

// timerFire is the window's time trigger. It races the size trigger
// and Close; whoever detaches the window first (under a.mu) leads it.
func (a *Aggregator) timerFire(w *aggWindow) {
	a.mu.Lock()
	if w.dispatched {
		a.mu.Unlock()
		return
	}
	a.detachLocked(w)
	a.mu.Unlock()
	a.dispatch(w)
}

// detachLocked removes w from the admission path: new arrivals open a
// fresh window. Callers hold a.mu; exactly one caller wins (guarded
// by w.dispatched) and must then call dispatch(w) outside the lock.
func (a *Aggregator) detachLocked(w *aggWindow) {
	w.dispatched = true
	w.timer.Stop()
	if a.cur == w {
		a.cur = nil
	}
}

// dispatch issues a detached window's accesses as one batch round
// trip and hands each waiter its result. Waiters whose deadline passed
// while they coalesced are answered without joining the batch — the
// access was never sent, a definite outcome (IsDeadlineExpired), and
// the server never spends trial decryptions on work the caller has
// already abandoned.
func (a *Aggregator) dispatch(w *aggWindow) {
	a.shedExpired(w)
	if len(w.waiters) == 0 {
		// Everyone aged out: nothing to send.
		w.sp.End()
		return
	}
	n := len(w.waiters)
	ops := make([]BatchOp, n)
	for i := range w.waiters {
		ops[i] = w.waiters[i].op
	}
	a.batches.Add(1)
	// The histogram's integer scale records a count, not a time: bucket
	// k holds windows that coalesced ~2^k accesses.
	a.mx.windowSize.Observe(time.Duration(n))
	// The batch executes under the window's span: the proxy-side stage
	// tree and the server's decrypt span join the window trace, shared
	// by all n sessions.
	dispatchedAt := a.stages.Now()
	results, _ := a.backend.AccessBatchResults(trace.ContextWith(context.Background(), w.sp), ops)
	rpc := a.stages.Now().Sub(dispatchedAt)
	a.mu.Lock()
	a.pending -= n
	a.mx.queueDepth.Set(int64(a.pending))
	a.mu.Unlock()
	for i := range w.waiters {
		wt := &w.waiters[i]
		wt.sp.End()
		// The time an access spent waiting for window mates is coalescing
		// latency, not server time: its own stage, never folded into the
		// round trip. The aggregator holds no PRF, so the label carries no
		// key material at all — the window, the session's place in it, and
		// (on the entry) the trace id that resolves to its span tree.
		a.stages.Record(wt.admitted, wt.sp.TraceID(), failedAccesses(results[i].Err),
			func() string { return fmt.Sprintf("window=%d session=%d", n, i) },
			dispatchedAt.Sub(wt.admitted), rpc)
	}
	w.sp.End()
	for i := range w.waiters {
		w.waiters[i].ch <- results[i]
	}
}

// shedExpired answers — and removes from w — every waiter whose
// context deadline has already passed, so a dispatched batch carries
// only accesses someone is still waiting for.
func (a *Aggregator) shedExpired(w *aggWindow) {
	live := w.waiters[:0]
	var dead int
	for _, wt := range w.waiters {
		if wt.ctx != nil && wt.ctx.Err() != nil {
			dead++
			wt.sp.End()
			wt.ch <- BatchResult{Err: errDeadlineBeforeBuild}
			continue
		}
		live = append(live, wt)
	}
	if dead == 0 {
		return
	}
	w.waiters = live
	a.expired.Add(int64(dead))
	a.mu.Lock()
	a.pending -= dead
	a.mx.queueDepth.Set(int64(a.pending))
	a.mu.Unlock()
}

// Close dispatches the open window immediately and rejects later
// accesses with ErrAggregatorClosed. Every already-admitted access is
// answered: callers that need those answers delivered must drain
// their request sources first (Client.Close drains the proxy
// transport servers before closing the aggregator).
func (a *Aggregator) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	w := a.cur
	if w != nil {
		a.detachLocked(w)
	}
	a.mu.Unlock()
	if w != nil {
		a.dispatch(w)
	}
}

// AggregatorStats is a point-in-time view of an aggregator's
// counters. CoalesceRatio is accesses per dispatched window — the
// round-trip amortization factor.
type AggregatorStats struct {
	Accesses  int64
	Batches   int64
	Rejected  int64
	Brownouts int64 // windows opened in brownout mode
	Expired   int64 // waiters answered unsent after their deadline passed
}

// CoalesceRatio returns accesses per dispatched window (0 before the
// first dispatch).
func (s AggregatorStats) CoalesceRatio() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Accesses) / float64(s.Batches)
}

// Stats returns the aggregator's cumulative counters.
func (a *Aggregator) Stats() AggregatorStats {
	return AggregatorStats{
		Accesses:  a.accesses.Load(),
		Batches:   a.batches.Load(),
		Rejected:  a.rejected.Load(),
		Brownouts: a.brownouts.Load(),
		Expired:   a.expired.Load(),
	}
}

// aggObs instruments the aggregation front end beyond its sessions'
// stage family (aggStages).
type aggObs struct {
	windowSize *obs.Histogram // accesses coalesced per dispatched window
	queueDepth *obs.Gauge     // admitted accesses awaiting an answer
}

// Instrument registers the aggregator's metrics (ortoa_agg_*) with
// reg. Call before serving accesses; a nil registry leaves the
// aggregator uninstrumented.
func (a *Aggregator) Instrument(reg *obs.Registry) {
	reg.CounterFunc("ortoa_agg_accesses_total", "accesses admitted into aggregation windows", a.accesses.Load)
	reg.CounterFunc("ortoa_agg_windows_total", "aggregation windows dispatched; accesses/windows is the coalesce ratio", a.batches.Load)
	reg.CounterFunc("ortoa_agg_rejected_total", "accesses refused by the pending-budget backpressure", a.rejected.Load)
	reg.CounterFunc("ortoa_agg_brownout_windows_total", "aggregation windows opened in brownout mode (pending depth past BrownoutPending)", a.brownouts.Load)
	reg.CounterFunc("ortoa_agg_expired_total", "admitted accesses answered unsent because their deadline passed while coalescing", a.expired.Load)
	a.stages = aggStages(reg)
	a.mx = aggObs{
		windowSize: reg.Histogram("ortoa_agg_window_accesses",
			"accesses coalesced per dispatched window (integer count on the duration scale)"),
		queueDepth: reg.Gauge("ortoa_agg_queue_depth",
			"admitted accesses waiting in the open window or in flight"),
	}
}
