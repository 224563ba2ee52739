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

// DefaultAggMaxPending is the admission budget: it counts every access
// admitted and not yet answered, held for its key or in flight alike.
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

// An Aggregator coalesces independent sessions' single-object accesses
// per key. An access to a key with no round in flight is sent at once,
// as a round of one. An access to a key whose round is in flight is
// held, and when that round returns everything held for the key leaves
// together as one chain (LBLProxy.round): one request, one response,
// the per-access results (and per-access errors) demultiplexed back to
// the waiters. So a busy key is served as many accesses per round trip
// as arrived during the last one, every round names exactly one key, and
// no two in-flight rounds ever queue on one counter. Nothing else makes
// an access wait: there is no timer and no size to fill.
//
// Order is FIFO per key: a key's accesses are applied, and answered, in
// the order they were admitted; accesses to different keys may overtake
// each other. Rounds run on goroutines of their own, so dispatch never
// blocks admission.
//
// Aggregator implements Accessor, so it drops into the proxy service
// in place of the per-request LBLProxy (see Client.ServeProxy).
// Security: the server sees exactly the frames a native AccessBatch of
// the same ops would produce — aggregation changes who contributed the
// accesses, never their shape on the wire
// (TestObliviousnessAggregatedWindow) — and which access waits for which
// depends on key identity and arrival time only, never on operation type.
type Aggregator struct {
	backend BatchAccessor
	stageObs

	mu sync.Mutex
	// held has an entry for every key with a round in flight: the
	// accesses admitted for it since that round left, in admission order.
	held    map[string][]aggWaiter
	pending int // admitted accesses not yet answered: held and in flight
	closed  bool
	sending sync.WaitGroup // rounds in flight; Add under mu

	accesses atomic.Int64 // admitted accesses
	rounds   atomic.Int64 // rounds dispatched
	rejected atomic.Int64 // accesses refused by backpressure
	expired  atomic.Int64 // waiters answered unsent: deadline passed before their round left

	chainLen   *obs.Histogram // accesses per dispatched round: one key's chain
	queueDepth *obs.Gauge     // admitted accesses awaiting an answer
}

// An aggWaiter is one admitted access: its op and the buffered
// channel its session blocks on.
type aggWaiter struct {
	op       BatchOp
	ch       chan BatchResult
	ctx      context.Context // caller context; a passed deadline drops the access unsent
	admitted time.Time       // when the access arrived, on the stage family's clock
	sp       *trace.Span     // agg_session span, ended when the result is delivered
}

// NewAggregator returns an aggregator dispatching to backend.
func NewAggregator(backend BatchAccessor) *Aggregator {
	return &Aggregator{backend: backend, held: make(map[string][]aggWaiter),
		stageObs: stageObs{stages: aggStages(nil)}}
}

// Access admits one oblivious access and blocks until its round
// answers it. It is the Accessor implementation the proxy service calls
// once per end-user request. AccessStats is zero: the frame's
// preparation and response bytes belong to the round, which a chain's
// members share, not to any single access.
func (a *Aggregator) Access(op Op, key string, newValue []byte) ([]byte, AccessStats, error) {
	return a.AccessContext(context.Background(), op, key, newValue)
}

// AccessContext is Access with a caller context. When ctx carries a
// trace span (a traced end-user request through the proxy front end),
// the access's agg_session span — its wait plus the round trip — is
// recorded in that request's own trace; otherwise it parents on the
// agg_round span of the round that carries it, so a chain's trace shows
// one round span parenting its members' session spans.
func (a *Aggregator) AccessContext(ctx context.Context, op Op, key string, newValue []byte) ([]byte, AccessStats, error) {
	var stats AccessStats
	ch := make(chan BatchResult, 1)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, stats, ErrAggregatorClosed
	}
	if a.pending >= DefaultAggMaxPending {
		a.mu.Unlock()
		a.rejected.Add(1)
		return nil, stats, ErrAggregatorOverloaded
	}
	a.pending++
	a.accesses.Add(1)
	a.queueDepth.Set(int64(a.pending))
	now := a.stages.Now()
	wt := aggWaiter{op: BatchOp{Op: op, Key: key, Value: newValue}, ch: ch, ctx: ctx,
		admitted: now, sp: trace.FromContext(ctx).Child("agg_session")}
	if held, busy := a.held[key]; busy {
		a.held[key] = append(held, wt)
	} else {
		a.sendLocked(now, key, []aggWaiter{wt})
	}
	a.mu.Unlock()
	res := <-ch
	return res.Value, stats, res.Err
}

// sendLocked sends wts — one arrival, or everything held for key while
// its last round was in flight — as key's next round, on a goroutine of
// its own; key is in flight from here until that round returns. Waiters
// whose deadline has already passed are answered unsent first, so the
// round carries only accesses someone is still waiting for: a definite
// outcome (IsDeadlineExpired), and the server never spends trial
// decryptions on work the caller has abandoned. If that leaves no one,
// or no one was held, nothing is sent and the key is free. Callers hold
// a.mu.
func (a *Aggregator) sendLocked(now time.Time, key string, wts []aggWaiter) {
	live := wts[:0]
	for _, wt := range wts {
		if wt.ctx.Err() != nil {
			wt.sp.End()
			wt.ch <- BatchResult{Err: errDeadlineBeforeBuild}
			continue
		}
		live = append(live, wt)
	}
	if dead := len(wts) - len(live); dead > 0 {
		a.expired.Add(int64(dead))
		a.pending -= dead
		a.queueDepth.Set(int64(a.pending))
	}
	if len(live) == 0 {
		delete(a.held, key)
		return
	}
	a.held[key] = nil
	sp := a.tracer.Load().StartRoot("agg_round")
	for i := range live {
		if live[i].sp == nil {
			live[i].sp = sp.Child("agg_session")
		}
	}
	a.sending.Add(1)
	go a.dispatch(now, key, live, sp)
}

// dispatch issues one key's round — sent at sentAt — as one batch round
// trip, sends what was held for the key meanwhile as its next, and hands
// each waiter its result.
func (a *Aggregator) dispatch(sentAt time.Time, key string, wts []aggWaiter, sp *trace.Span) {
	defer a.sending.Done()
	n := len(wts)
	ops := make([]BatchOp, n)
	for i := range wts {
		ops[i] = wts[i].op
	}
	a.rounds.Add(1)
	// The histogram's integer scale records a count, not a time: bucket
	// k holds rounds that carried ~2^k accesses.
	a.chainLen.Observe(time.Duration(n))
	// The batch executes under the round's span: the proxy-side stage
	// tree and the server's decrypt span join the round trace, shared by
	// all n sessions.
	results, _ := a.backend.AccessBatchResults(trace.ContextWith(context.Background(), sp), ops)

	a.mu.Lock()
	// Read under the lock, as admission reads its clock: everything held
	// was admitted before this instant, so no wait comes out negative.
	returnedAt := a.stages.Now()
	a.pending -= n
	a.queueDepth.Set(int64(a.pending))
	// The key stays in flight across the hand-over: an arrival is either
	// already among the held (and leaves with them now) or comes after
	// (and is held behind them), never in between.
	a.sendLocked(returnedAt, key, a.held[key])
	a.mu.Unlock()

	for i := range wts {
		wt := &wts[i]
		wt.sp.End()
		// The time an access spent held for its key is coalescing latency,
		// not server time: a stage of its own, never folded into the round
		// trip. The aggregator holds no PRF, so the label carries no key
		// material at all — the chain, the access's place in it, and (on the
		// entry) the trace id that resolves to its span tree.
		a.stages.Record(wt.admitted, wt.sp.TraceID(), failedAccesses(results[i].Err),
			func() string { return fmt.Sprintf("chain=%d member=%d", n, i) },
			sentAt.Sub(wt.admitted), returnedAt.Sub(sentAt))
	}
	sp.End()
	for i := range wts {
		wts[i].ch <- results[i]
	}
}

// Close rejects later accesses with ErrAggregatorClosed and returns once
// every already-admitted access has been answered — those in flight by
// their rounds, those held for a key by the rounds that follow as the
// keys come back. Callers that need those answers delivered must drain
// their request sources first (Client.Close drains the proxy transport
// servers before closing the aggregator).
func (a *Aggregator) Close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.sending.Wait()
}

// Instrument registers the aggregator's metrics (ortoa_agg_*) and its
// sessions' stage family with reg. Call before serving accesses; a nil
// registry leaves the aggregator uninstrumented.
func (a *Aggregator) Instrument(reg *obs.Registry) {
	reg.CounterFunc("ortoa_agg_accesses_total", "accesses admitted by the aggregator", a.accesses.Load)
	reg.CounterFunc("ortoa_agg_rounds_total", "aggregated rounds dispatched, each one key's chain; accesses/rounds is the coalesce ratio", a.rounds.Load)
	reg.CounterFunc("ortoa_agg_rejected_total", "accesses refused by the pending-budget backpressure", a.rejected.Load)
	reg.CounterFunc("ortoa_agg_expired_total", "admitted accesses answered unsent because their deadline passed before their round left", a.expired.Load)
	a.stages = aggStages(reg)
	a.chainLen = reg.Histogram("ortoa_agg_chain_accesses",
		"accesses a dispatched round carried, sent as one key's chain (integer count on the duration scale)")
	a.queueDepth = reg.Gauge("ortoa_agg_queue_depth", "admitted accesses held for a key or in flight")
}
