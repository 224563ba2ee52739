// Package obs is the runtime observability layer for long-running
// ORTOA deployments: a metrics registry of lock-free counters, gauges,
// and log-bucketed latency histograms, exported in the Prometheus text
// exposition format, plus a slow-request trace log and an HTTP admin
// endpoint (admin.go).
//
// The paper's evaluation (§6, Figs 2–5) is entirely about where access
// latency goes — proxy compute vs. network round trip vs. server work —
// so the protocol hot paths time each access through a declared stage
// family (stages.go; DESIGN.md §8 has the metric ↔ paper-stage map).
// Metrics are opt-in: every instrumented component accepts a nil
// *Registry, and all metric methods are nil-receiver no-ops, so the
// disabled path costs one branch and allocates nothing.
//
// The package is stdlib-only and safe for concurrent use. Hot-path
// operations (Counter.Add, Gauge.Set, Histogram.Observe) take no locks:
// they are single atomic RMW operations on pre-allocated cells, so
// many goroutines can hammer one metric without contention beyond
// cache-line traffic.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/obs/trace"
)

// A Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; a nil Counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n and returns the new value (0 for a
// nil receiver).
func (c *Counter) Add(n int64) int64 {
	if c == nil {
		return 0
	}
	return c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an atomic instantaneous value. The zero value is ready to
// use; a nil Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (negative to decrease) and returns the
// new value (0 for a nil receiver).
func (g *Gauge) Add(n int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(n)
}

// Inc increments the gauge by one and returns the new value.
func (g *Gauge) Inc() int64 { return g.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log2 duration buckets. Bucket i counts
// samples whose nanosecond duration has bit-length i, i.e. durations
// in (2^(i-1), 2^i − 1] ns; bucket 0 counts zero/negative samples.
// 2^46 ns ≈ 19.5 h, far beyond any per-request latency.
const histBuckets = 47

// A Histogram accumulates a latency distribution in logarithmic
// buckets. Observe is a fixed sequence of atomic adds — no locks, no
// allocation — so it can sit on protocol hot paths. The exact sum and
// count are kept alongside the buckets, so Mean is exact while
// quantiles are bucket-interpolated (≤2× relative error, plenty for
// the per-stage breakdowns of Fig 3c). A nil Histogram discards
// samples.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
	// exemplars holds one recent trace id per bucket (0 = none),
	// written by ObserveExemplar so a slow bucket on /metrics links
	// straight to the /trace span tree that landed in it.
	exemplars [histBuckets]atomic.Uint64
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) { h.ObserveExemplar(d, 0) }

// ObserveExemplar records one sample and, when traceID is nonzero,
// attaches it as the bucket's exemplar — the most recent trace to land
// in that latency bucket. Slow-bucket exemplars are how an operator
// goes from "p99 regressed" to one concrete span tree.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID uint64) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	idx := bits.Len64(uint64(ns))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
	if traceID != 0 {
		h.exemplars[idx].Store(traceID)
	}
}

// Since records the elapsed time from start. It is shorthand for
// Observe(time.Since(start)); a nil receiver skips the clock read.
func (h *Histogram) Since(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact total of all observed samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the exact mean sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.Sum()) / n)
}

// bucketUpper returns the inclusive upper bound of bucket i in
// nanoseconds.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// Quantile returns the bucket-interpolated p-quantile (p in [0, 1]),
// or 0 with no samples. Within the target bucket it interpolates
// linearly between the bucket bounds.
func (h *Histogram) Quantile(p float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(n)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(bucketUpper(i-1)) + 1
			}
			hi := float64(bucketUpper(i))
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / c
			}
			return time.Duration(lo + frac*(hi-lo))
		}
		cum += c
	}
	return time.Duration(bucketUpper(histBuckets - 1))
}

// metricKind drives Prometheus TYPE lines.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered entry: exactly one of the value fields is
// set. fn-backed entries are evaluated at scrape time (for values a
// component already tracks, like kvstore record counts) as the sum of
// their sources plus what retired sources left behind.
type metric struct {
	name string // full name including any {label="..."} suffix
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fns     []*funcSource // replaced, never mutated in place: snapshots stay valid
	retired int64         // final values of retired counter sources
}

// A funcSource is one component instance's callback behind a
// func-backed series.
type funcSource struct {
	m  *metric
	fn func() int64
}

// funcValue sums a func-backed metric. m must be a snapshot taken
// under the registry lock; the callbacks run outside it.
func (m *metric) funcValue() int64 {
	v := m.retired
	for _, src := range m.fns {
		v += src.fn()
	}
	return v
}

// A Registry names and exports a set of metrics. Metrics are created
// with get-or-create semantics, so components instrumented against the
// same registry share series (e.g. every shard's proxy feeds one stage
// histogram). A nil *Registry is a valid "observability off" registry:
// every constructor returns nil, and nil metrics discard updates.
type Registry struct {
	*registryState

	// scoped marks a Scope view; owned lists the func-backed sources
	// registered through it (guarded by mu), which Retire withdraws.
	scoped bool
	owned  []*funcSource
}

// registryState is what a Registry and every Scope view of it share.
type registryState struct {
	mu      sync.Mutex
	metrics map[string]*metric
	slowMu  sync.Mutex
	slow    map[string]*SlowLog

	healthMu sync.Mutex
	health   map[string]func() error
	auditors map[string]*ShapeAuditor // one per process label (NewShapeAuditor)

	hookMu sync.Mutex
	hooks  []func()

	tracerMu sync.Mutex
	tracers  map[string]*trace.Tracer

	runtimeOnce sync.Once // RegisterRuntimeMetrics idempotence
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{registryState: &registryState{
		metrics:  make(map[string]*metric),
		slow:     make(map[string]*SlowLog),
		auditors: make(map[string]*ShapeAuditor),
	}}
}

// Scope returns a view of r for one component instance that may be
// replaced while the registry lives on — a restarted shard server, a
// recovered proxy. Everything registered through the view lands in r
// as usual; Retire then withdraws what only that instance could
// report. Returns nil on a nil registry.
func (r *Registry) Scope() *Registry {
	if r == nil {
		return nil
	}
	return &Registry{registryState: r.registryState, scoped: true}
}

// Retire ends a Scope. Its func-backed gauges stop reporting — a dead
// instance's record count, queue depth or owned ranges would otherwise
// be summed into its replacement's — and its func-backed counters
// freeze at their final value, so totals stay monotone without the
// registry pinning the dead instance in memory. Handle-backed series
// are shared by name and unaffected. The callbacks run under the
// registry lock and must not call back into the registry. No-op on nil
// and on a registry that is not a Scope.
func (r *Registry) Retire() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, src := range r.owned {
		m := src.m
		if m.kind == kindCounter {
			m.retired += src.fn()
		}
		m.fns = slices.DeleteFunc(slices.Clone(m.fns), func(other *funcSource) bool { return other == src })
	}
	r.owned = nil
}

// register returns the existing metric for name or installs m.
func (r *Registry) register(name, help string, kind metricKind, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	m.name, m.help, m.kind = name, help, kind
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it if
// needed. name may carry a Prometheus label suffix, e.g.
// `frames_total{dir="in"}`. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, func() *metric {
		return &metric{counter: &Counter{}}
	}).counter
}

// Gauge returns the gauge registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, func() *metric {
		return &metric{gauge: &Gauge{}}
	}).gauge
}

// Histogram returns the histogram registered under name, creating it
// if needed. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, func() *metric {
		return &metric{hist: &Histogram{}}
	}).hist
}

// Value returns the current value of the named counter or gauge,
// func-backed or handle-backed, and 0 for unregistered names or
// histograms. Experiments and tests use it to assert on metrics that
// components export only through scrape-time callbacks. Returns 0 on a
// nil registry.
func (r *Registry) Value(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	var m metric
	if p, ok := r.metrics[name]; ok {
		m = *p
	}
	r.mu.Unlock()
	switch {
	case m.fns != nil:
		return m.funcValue()
	case m.counter != nil:
		return m.counter.Value()
	case m.gauge != nil:
		return m.gauge.Value()
	}
	return 0
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — for totals a component already tracks in its own
// atomics (e.g. transport.Client.Stats). Registering the same name
// again sums the callbacks, so per-shard components naturally
// aggregate into one series. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.registerFunc(name, help, kindCounter, fn)
}

// GaugeFunc registers a gauge read from fn at scrape time; same
// name-collision summing as CounterFunc. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.registerFunc(name, help, kindGauge, fn)
}

// Health registers a named liveness check, polled by the /healthz
// admin endpoint at request time: a nil return means healthy, an
// error marks the process unhealthy (503) with the error text in the
// body. Re-registering a name replaces the check. No-op on a nil
// registry.
func (r *Registry) Health(name string, check func() error) {
	if r == nil {
		return
	}
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	if r.health == nil {
		r.health = make(map[string]func() error)
	}
	r.health[name] = check
}

// A HealthResult is one check's outcome at poll time.
type HealthResult struct {
	Name string
	Err  error // nil when healthy
}

// CheckHealth polls every registered check and returns the results
// sorted by name. A nil registry (or none registered) reports healthy.
func (r *Registry) CheckHealth() []HealthResult {
	if r == nil {
		return nil
	}
	r.healthMu.Lock()
	names := make([]string, 0, len(r.health))
	checks := make([]func() error, 0, len(r.health))
	for name := range r.health {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checks = append(checks, r.health[name])
	}
	r.healthMu.Unlock()
	out := make([]HealthResult, len(names))
	for i, name := range names {
		out[i] = HealthResult{Name: name, Err: checks[i]()}
	}
	return out
}

func (r *Registry) registerFunc(name, help string, kind metricKind, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	if !ok {
		m = &metric{name: name, help: help, kind: kind, fns: []*funcSource{}}
		r.metrics[name] = m
	} else if m.fns == nil {
		return // name already taken by a handle-backed series
	}
	src := &funcSource{m: m, fn: fn}
	m.fns = append(slices.Clip(m.fns), src)
	if r.scoped {
		r.owned = append(r.owned, src)
	}
}

// OnScrape registers fn to run at the start of every WritePrometheus
// call, before the metric snapshot is taken — for metrics that are
// cheaper to refresh per scrape than per event (runtime.ReadMemStats).
// No-op on a nil registry.
func (r *Registry) OnScrape(fn func()) {
	if r == nil {
		return
	}
	r.hookMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.hookMu.Unlock()
}

func (r *Registry) runScrapeHooks() {
	r.hookMu.Lock()
	hooks := r.hooks
	r.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Tracer returns the span tracer registered under the given process
// name, creating it with the given ring capacity if needed. Components
// instrumented against the same registry share the tracer, so every
// shard's proxy feeds one /trace buffer. Returns nil on a nil
// registry; a nil tracer starts nil (no-op) spans.
func (r *Registry) Tracer(process string, capacity int) *trace.Tracer {
	if r == nil {
		return nil
	}
	r.tracerMu.Lock()
	defer r.tracerMu.Unlock()
	if r.tracers == nil {
		r.tracers = make(map[string]*trace.Tracer)
	}
	if t, ok := r.tracers[process]; ok {
		return t
	}
	t := trace.NewTracer(process, capacity)
	r.tracers[process] = t
	return t
}

// TraceRecords returns every retained span across all of the
// registry's tracers, sorted by start time — the /trace endpoint's
// data source.
func (r *Registry) TraceRecords() []trace.SpanRecord {
	if r == nil {
		return nil
	}
	r.tracerMu.Lock()
	tracers := make([]*trace.Tracer, 0, len(r.tracers))
	for _, t := range r.tracers {
		tracers = append(tracers, t)
	}
	r.tracerMu.Unlock()
	var out []trace.SpanRecord
	for _, t := range tracers {
		out = append(out, t.Snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// SlowLog returns the slow-request trace log registered under name,
// creating it with the given capacity if needed. Returns nil on a nil
// registry.
func (r *Registry) SlowLog(name string, capacity int) *SlowLog {
	if r == nil {
		return nil
	}
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	if l, ok := r.slow[name]; ok {
		return l
	}
	l := newSlowLog(name, capacity)
	r.slow[name] = l
	return l
}

// slowLogs returns all registered slow logs sorted by name.
func (r *Registry) slowLogs() []*SlowLog {
	if r == nil {
		return nil
	}
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	out := make([]*SlowLog, 0, len(r.slow))
	for _, l := range r.slow {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// baseName strips a {label="..."} suffix, returning the metric family
// name Prometheus TYPE/HELP lines use.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelInsert splits name into the pieces needed to splice extra
// labels (histogram le) into an already-labelled name:
// `x{a="b"}` → (`x{a="b",`, `}`); `x` → (`x{`, `}`).
func labelInsert(name string) (prefix, suffix string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return strings.TrimSuffix(name, "}") + ",", "}"
	}
	return name + "{", "}"
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (text/plain; version 0.0.4). Metric families are
// sorted by name; HELP/TYPE lines are emitted once per family.
// Durations are exported in seconds, per Prometheus convention.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Scrape hooks refresh pull-model metrics (runtime stats) and may
	// register series, so they run before the snapshot below.
	r.runScrapeHooks()
	// Snapshot metric structs under the lock: registerFunc and Retire
	// may still be replacing source lists while a scrape is in flight.
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		cp := *m
		ms = append(ms, &cp)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	seenFamily := ""
	for _, m := range ms {
		fam := baseName(m.name)
		if fam != seenFamily {
			seenFamily = fam
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, strings.ReplaceAll(m.help, "\n", " ")); err != nil {
					return err
				}
			}
			kind := "counter"
			switch m.kind {
			case kindGauge:
				kind = "gauge"
			case kindHistogram:
				kind = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, kind); err != nil {
				return err
			}
		}
		var err error
		switch {
		case m.fns != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.funcValue())
		case m.counter != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case m.gauge != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		case m.hist != nil:
			err = writeHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram emits the cumulative _bucket/_sum/_count series for
// one histogram, with le bounds in seconds. Empty buckets are elided
// (the series stays cumulative, so this loses nothing).
func writeHistogram(w io.Writer, m *metric) error {
	h := m.hist
	base := baseName(m.name)
	labels := strings.TrimPrefix(m.name, base) // "" or `{k="v"}`
	pre, suf := labelInsert(m.name)
	bucketLabels := pre[len(base):] // `{` or `{k="v",`
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		le := float64(bucketUpper(i)) / float64(time.Second)
		// OpenMetrics-style exemplar: link the bucket to a recent trace
		// id when one was attached. Untraced histograms render exactly
		// as before.
		exemplar := ""
		if ex := h.exemplars[i].Load(); ex != 0 {
			exemplar = fmt.Sprintf(" # {trace_id=\"%016x\"} %s", ex, fmtFloat(le))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%sle=%q%s %d%s\n", base, bucketLabels, fmtFloat(le), suf, cum, exemplar); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"%s %d\n", base, bucketLabels, suf, h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, fmtFloat(h.Sum().Seconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count())
	return err
}
