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

// aggWindowBytes is the request size at which a window closes without
// waiting for its timer. One constant, not an estimate of the link: the
// transport pipelines independent calls on its connections and overlaps
// their round trips, so a window past what one connection drains in a
// few milliseconds only makes its accesses wait for each other's bytes,
// and a smaller one is never worse once a key's chain is never split.
// 128 KiB is the small end of the sweep that sized it, not a knee: on the
// benchmark's WAN workload the point below it, one access per window,
// reads a few percent better still (EXPERIMENTS.md, "Cross-session
// aggregation"; ROADMAP asks whether the window earns its code at all).
const aggWindowBytes = 128 << 10

// DefaultAggMaxPending is the default admission budget. It counts every
// access admitted and not yet answered — held for its key, waiting in
// the open window, or in flight — alike, and is independent of how
// large a window grows.
const DefaultAggMaxPending = 256

// ErrAggregatorOverloaded rejects an access admitted beyond the
// aggregator's pending budget — the backpressure signal. The access
// was not executed; the caller may retry after backing off.
var ErrAggregatorOverloaded = errors.New("core: aggregator overloaded: pending-access budget exhausted")

// ErrAggregatorClosed rejects accesses arriving after Close.
var ErrAggregatorClosed = errors.New("core: aggregator closed")

// A BatchAccessor executes many oblivious accesses as one round trip,
// reporting each access's outcome individually. *LBLProxy implements it.
type BatchAccessor interface {
	AccessBatchResults(ctx context.Context, ops []BatchOp) ([]BatchResult, AccessStats)
}

// AggregatorConfig tunes an Aggregator.
type AggregatorConfig struct {
	// Window is the longest an access waits for company: the window
	// dispatches at most this long after its first access joins it.
	// It is the latency the slowest-coalescing access pays to buy the
	// round-trip amortization; it must be positive.
	Window time.Duration
	// MaxPending is the admission budget: the total number of accesses
	// admitted but not yet answered. An access arriving beyond it is
	// rejected with ErrAggregatorOverloaded instead of queueing
	// unboundedly (default DefaultAggMaxPending).
	MaxPending int
}

func (c AggregatorConfig) maxPending() int {
	if c.MaxPending > 0 {
		return c.MaxPending
	}
	return DefaultAggMaxPending
}

// An Aggregator multiplexes concurrent single-object accesses from
// independent sessions into shared oblivious batch round trips: the
// first access opens a window, later arrivals join it, and when the
// window closes — it holds as many accesses as fit the byte budget
// (aggWindowBytes; at least one), or its timer fires — its accesses go out as a single
// round (one request, one response) and the per-access results (and
// per-access errors) are demultiplexed back to the waiters.
//
// No window waits for a key. The aggregator knows which keys ride
// dispatched, unanswered windows; an access to such a key is held, per
// key, and when that key's round returns everything held for it joins
// the open window together — as one chain (LBLProxy.round), never split
// by the byte budget — so a busy key is served as many accesses per
// round trip as arrived during the last one, and no two in-flight
// windows ever queue on one counter. Order is FIFO per key: a key's
// accesses are applied, and answered, in the order they were admitted;
// accesses to different keys may overtake each other.
//
// A fresh window opens for new arrivals the moment one closes, so
// dispatch never blocks admission and windows pipeline behind one
// another — the hand-off mirrors the WAL's group commit (DESIGN.md §10).
//
// Aggregator implements Accessor, so it drops into the proxy service
// in place of the per-request LBLProxy (see Client.ServeProxy).
// Security: the server sees exactly the frames a native AccessBatch of
// the same keys would produce — aggregation changes who contributed the
// accesses, never their shape on the wire
// (TestObliviousnessAggregatedWindow) — and which access waits for which
// depends on key identity and arrival time only, never on operation type.
type Aggregator struct {
	cfg     AggregatorConfig
	backend BatchAccessor
	fill    int // accesses at which a window is sent: what fits aggWindowBytes, at least one
	stageObs

	mu       sync.Mutex
	cur      *aggWindow             // open window accepting arrivals, nil if none
	inflight map[string]int         // keys of dispatched, unanswered windows → accesses their window carries for them
	held     map[string][]aggWaiter // accesses to in-flight keys, in admission order
	pending  int                    // admitted accesses not yet answered: held, windowed and in flight
	closed   bool
	sending  sync.WaitGroup // dispatched, unanswered windows; Add under mu

	accesses atomic.Int64 // admitted accesses
	batches  atomic.Int64 // windows dispatched
	rejected atomic.Int64 // accesses refused by backpressure
	expired  atomic.Int64 // waiters answered unsent: deadline passed before their window left

	mx aggObs
}

// An aggWaiter is one admitted access: its op and the buffered
// channel its session blocks on.
type aggWaiter struct {
	op       BatchOp
	ch       chan BatchResult
	ctx      context.Context // caller context; a passed deadline drops the access unsent
	admitted time.Time       // when the access arrived, on the stage family's clock,
	joined   time.Time       // and when it joined its window: later only if it was held for its key
	sp       *trace.Span     // agg_session span, ended when the result is delivered
}

// An aggWindow is one open or in-flight aggregation window. waiters is
// append-only in joining order; results demultiplex by index.
type aggWindow struct {
	waiters []aggWaiter
	keys    []string    // the distinct keys of waiters, once sent: what the window holds in flight
	timer   *time.Timer // nil in a window opened after Close
	sp      *trace.Span // agg_window span, opened with the window
	sent    bool        // detached from the aggregator; owned by its dispatch
}

// NewAggregator returns an aggregator dispatching to backend, whose
// requests grow by accessBytes (LBLConfig.RequestBytesPerAccess) per
// access. Window must be positive.
func NewAggregator(cfg AggregatorConfig, accessBytes int, backend BatchAccessor) *Aggregator {
	if cfg.Window <= 0 {
		panic("core: AggregatorConfig.Window must be positive")
	}
	return &Aggregator{cfg: cfg, backend: backend, fill: max(aggWindowBytes/accessBytes, 1),
		inflight: make(map[string]int), held: make(map[string][]aggWaiter),
		stageObs: stageObs{stages: aggStages(nil)}}
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
// the access's agg_session span — its waits plus the shared round trip —
// is recorded in that request's own trace; otherwise it parents on the
// agg_window span of the window it joins, so the window trace shows one
// window span parenting its N session spans.
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
	now := a.stages.Now()
	wt := aggWaiter{op: BatchOp{Op: op, Key: key, Value: newValue}, ch: ch, ctx: ctx,
		admitted: now, sp: trace.FromContext(ctx).Child("agg_session")}
	if a.inflight[key] > 0 {
		a.held[key] = append(a.held[key], wt)
	} else {
		a.joinLocked(now, wt)
	}
	a.mu.Unlock()
	res := <-ch
	return res.Value, stats, res.Err
}

// joinLocked adds wts — one arrival, or everything held for one key — to
// the open window, opening one if there is none, and sends the window if
// it then holds as many accesses as fit the byte budget. That is checked
// after they have all joined, never between them: a key's held accesses
// split across windows would be back to waiting a round trip for each
// other. Callers hold a.mu.
func (a *Aggregator) joinLocked(now time.Time, wts ...aggWaiter) {
	w := a.cur
	if w == nil {
		w = &aggWindow{sp: a.tracer.Load().StartRoot("agg_window")}
		if !a.closed {
			w.timer = time.AfterFunc(a.cfg.Window, func() { a.timerFire(w) })
		}
		a.cur = w
	}
	for _, wt := range wts {
		wt.joined = now
		if wt.sp == nil {
			wt.sp = w.sp.Child("agg_session")
		}
		w.waiters = append(w.waiters, wt)
	}
	// After Close nothing waits for company: what was held when it was
	// called flows out as its keys come back.
	if len(w.waiters) >= a.fill || a.closed {
		a.sendLocked(w)
	}
}

// timerFire is the window's time trigger. It races the byte trigger and
// Close; whoever gets to the window first (under a.mu) sends it.
func (a *Aggregator) timerFire(w *aggWindow) {
	a.mu.Lock()
	if !w.sent {
		a.sendLocked(w)
	}
	a.mu.Unlock()
}

// sendLocked closes w: new arrivals open a fresh window, waiters whose
// deadline has passed are answered unsent, the keys of the rest are in
// flight from here until the round returns, and the round runs on a
// goroutine of its own. Callers hold a.mu; w must not have been sent.
func (a *Aggregator) sendLocked(w *aggWindow) {
	w.sent = true
	if w.timer != nil {
		w.timer.Stop()
	}
	if a.cur == w {
		a.cur = nil
	}
	a.shedExpiredLocked(w)
	if len(w.waiters) == 0 {
		// Everyone aged out: nothing to send, and no key to hold.
		w.sp.End()
		return
	}
	for i := range w.waiters {
		key := w.waiters[i].op.Key
		if a.inflight[key]++; a.inflight[key] == 1 {
			w.keys = append(w.keys, key)
		}
	}
	a.sending.Add(1)
	go a.dispatch(w)
}

// shedExpiredLocked answers — and removes from w — every waiter whose
// context deadline has already passed, so the round carries only
// accesses someone is still waiting for: the access was never sent, a
// definite outcome (IsDeadlineExpired), and the server never spends
// trial decryptions on work the caller has already abandoned. An access
// held for its key is shed here like any other, when its window leaves.
func (a *Aggregator) shedExpiredLocked(w *aggWindow) {
	live := w.waiters[:0]
	for _, wt := range w.waiters {
		if wt.ctx != nil && wt.ctx.Err() != nil {
			wt.sp.End()
			wt.ch <- BatchResult{Err: errDeadlineBeforeBuild}
			continue
		}
		live = append(live, wt)
	}
	if dead := len(w.waiters) - len(live); dead > 0 {
		w.waiters = live
		a.expired.Add(int64(dead))
		a.pending -= dead
		a.mx.queueDepth.Set(int64(a.pending))
	}
}

// dispatch issues a sent window's accesses as one batch round trip,
// ends its keys' time in flight, and hands each waiter its result.
func (a *Aggregator) dispatch(w *aggWindow) {
	defer a.sending.Done()
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
	returnedAt := a.stages.Now()
	rpc := returnedAt.Sub(dispatchedAt)

	a.mu.Lock()
	a.pending -= n
	a.mx.queueDepth.Set(int64(a.pending))
	// Each key once, however many of the window's accesses named it: a
	// second release would un-mark a key whose held chain this one has
	// just put back in flight, and two windows would share it.
	for _, key := range w.keys {
		a.mx.chainLen.Observe(time.Duration(a.inflight[key]))
		delete(a.inflight, key)
		if held := a.held[key]; len(held) > 0 {
			delete(a.held, key)
			a.joinLocked(returnedAt, held...)
		}
	}
	a.mu.Unlock()

	for i := range w.waiters {
		wt := &w.waiters[i]
		wt.sp.End()
		// The time an access spent held for its key or waiting for window
		// mates is coalescing latency, not server time: stages of their own,
		// never folded into the round trip. The aggregator holds no PRF, so
		// the label carries no key material at all — the window, the
		// session's place in it, and (on the entry) the trace id that
		// resolves to its span tree.
		a.stages.Record(wt.admitted, wt.sp.TraceID(), failedAccesses(results[i].Err),
			func() string { return fmt.Sprintf("window=%d session=%d", n, i) },
			wt.joined.Sub(wt.admitted), dispatchedAt.Sub(wt.joined), rpc)
	}
	w.sp.End()
	for i := range w.waiters {
		w.waiters[i].ch <- results[i]
	}
}

// Close sends the open window immediately, rejects later accesses with
// ErrAggregatorClosed, and returns once every already-admitted access
// has been answered — those in flight by their rounds, those held for a
// key by the rounds that follow as the keys come back. Callers that
// need those answers delivered must drain their request sources first
// (Client.Close drains the proxy transport servers before closing the
// aggregator).
func (a *Aggregator) Close() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		if a.cur != nil {
			a.sendLocked(a.cur)
		}
	}
	a.mu.Unlock()
	a.sending.Wait()
}

// AggregatorStats is a point-in-time view of an aggregator's
// counters. CoalesceRatio is accesses per dispatched window — the
// round-trip amortization factor.
type AggregatorStats struct {
	Accesses int64
	Batches  int64
	Rejected int64
	Expired  int64 // waiters answered unsent after their deadline passed
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
		Accesses: a.accesses.Load(),
		Batches:  a.batches.Load(),
		Rejected: a.rejected.Load(),
		Expired:  a.expired.Load(),
	}
}

// aggObs instruments the aggregation front end beyond its sessions'
// stage family (aggStages).
type aggObs struct {
	windowSize *obs.Histogram // accesses coalesced per dispatched window
	chainLen   *obs.Histogram // accesses a dispatched window carried for one key
	queueDepth *obs.Gauge     // admitted accesses awaiting an answer
}

// Instrument registers the aggregator's metrics (ortoa_agg_*) with
// reg. Call before serving accesses; a nil registry leaves the
// aggregator uninstrumented.
func (a *Aggregator) Instrument(reg *obs.Registry) {
	reg.CounterFunc("ortoa_agg_accesses_total", "accesses admitted into aggregation windows", a.accesses.Load)
	reg.CounterFunc("ortoa_agg_windows_total", "aggregation windows dispatched; accesses/windows is the coalesce ratio", a.batches.Load)
	reg.CounterFunc("ortoa_agg_rejected_total", "accesses refused by the pending-budget backpressure", a.rejected.Load)
	reg.CounterFunc("ortoa_agg_expired_total", "admitted accesses answered unsent because their deadline passed before their window left", a.expired.Load)
	a.stages = aggStages(reg)
	a.mx = aggObs{
		windowSize: reg.Histogram("ortoa_agg_window_accesses",
			"accesses coalesced per dispatched window (integer count on the duration scale)"),
		chainLen: reg.Histogram("ortoa_agg_chain_accesses",
			"accesses a dispatched window carried for one key, sent as one chain (integer count on the duration scale)"),
		queueDepth: reg.Gauge("ortoa_agg_queue_depth",
			"admitted accesses held for a key, waiting in the open window or in flight"),
	}
}
