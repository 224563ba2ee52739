package obs

import (
	"context"
	"strings"
	"time"

	"ortoa/internal/obs/trace"
)

// now is the package's one clock. Everything below reads time through
// it, so a test can count the readings or script them.
var now = time.Now

// maxStages bounds a stage family, so a Clock's per-stage accumulators
// are a fixed array on its caller's stack.
const maxStages = 5

// Stages is one declared stage family: the ordered stage names of one
// kind of access and, when the registry is live, every sink a stage
// boundary feeds — <family>_stage_seconds{stage=…}, the end-to-end
// <family>_access_seconds (with trace-id exemplars),
// <family>_access_errors_total, and the slow log of the worst accesses.
// Declaring the family is what names the spans, the series and the
// slow-log columns; nothing else spells a stage name (DESIGN.md §8).
type Stages struct {
	names  []string
	stage  [maxStages]*Histogram
	access *Histogram // nil on an unmetered family
	errors *Counter
	slow   *SlowLog
}

// Stages declares a stage family. family is the series prefix
// ("ortoa_lbl"), help describes the stage histograms, and names are the
// stages in execution order. Registries are get-or-create, so every
// declaration of one family against one registry shares its series. A
// nil registry still returns a family, an unmetered one: it names the
// spans of a traced access and feeds nothing else.
func (r *Registry) Stages(family, help string, names ...string) *Stages {
	if len(names) > maxStages {
		panic("obs: stage family " + family + " declares more than maxStages stages")
	}
	s := &Stages{names: names}
	if r == nil {
		return s
	}
	for i, name := range names {
		s.stage[i] = r.Histogram(family+`_stage_seconds{stage="`+name+`"}`, help)
	}
	s.access = r.Histogram(family+"_access_seconds",
		help+", end to end: the sum of the stages, one observation per access (per round, for rounds) with at least one success")
	s.errors = r.Counter(family+"_access_errors_total", "accesses that failed")
	s.slow = r.SlowLog(strings.TrimPrefix(family, "ortoa_")+"_access", 32)
	return s
}

// Names returns the family's stage names in execution order.
func (s *Stages) Names() []string { return s.names }

// Histogram returns the stage's histogram (nil on an unmetered family).
func (s *Stages) Histogram(stage int) *Histogram { return s.stage[stage] }

// Access returns the end-to-end histogram (nil on an unmetered family).
func (s *Stages) Access() *Histogram { return s.access }

// A Clock times one access through its family's stages. It lives on
// its caller's stack. From the first Enter on exactly one stage runs at
// any moment, and the first begins when the access did: Enter is the
// boundary between two, one clock reading that closes the running
// stage's lap and span and opens the next, and Done closes the last on
// the reading that ends the root, so laps and spans tile the access with
// no gap and no overlap, and Done reports what accumulated. An inert
// clock — no family, or an unmetered family with no span in the caller's
// context and no tracer — never reads the clock and never allocates; a
// metered but untraced one allocates only when the slow log retains the
// access.
type Clock struct {
	fam  *Stages // nil on an inert clock
	root *trace.Span
	span *trace.Span // the running stage's
	cur  int         // 1 + the running stage; 0 before the first Enter
	mark time.Time   // when the running stage began; before the first Enter, when the access did
	d    [maxStages]time.Duration
}

// Start begins timing one access, on one clock reading, and opens its
// root span, named root: a child of the span ctx carries, else a new
// trace in tracer, else none. The returned context carries the root
// span. Time before the first Enter belongs to the first stage entered.
func (s *Stages) Start(ctx context.Context, tracer *trace.Tracer, root string) (Clock, context.Context) {
	parent := trace.FromContext(ctx)
	if s == nil || s.access == nil && parent == nil && tracer == nil {
		return Clock{}, ctx
	}
	c := Clock{fam: s, mark: now()}
	switch {
	case parent != nil:
		c.root = parent.ChildAt(root, c.mark)
	case tracer != nil:
		c.root = tracer.StartRootAt(root, c.mark)
	}
	return c, trace.ContextWith(ctx, c.root)
}

// Enter crosses a stage boundary: the running stage ends and stage
// begins, on one clock reading — or, entered first, begins when the
// access did. A stage may be entered more than once; its laps add up.
func (c *Clock) Enter(stage int) {
	if c.fam == nil {
		return
	}
	t := now()
	begin := c.mark
	if c.cur != 0 {
		c.close(t)
		begin = t
	}
	c.cur, c.mark = stage+1, begin
	c.span = c.root.ChildAt(c.fam.names[stage], begin)
}

// Context returns ctx carrying the running stage's span, so what the
// stage calls — the transport, for the rpc stage — joins the trace
// beneath it.
func (c *Clock) Context(ctx context.Context) context.Context {
	return trace.ContextWith(ctx, c.span)
}

func (c *Clock) close(t time.Time) {
	c.d[c.cur-1] += t.Sub(c.mark)
	c.span.EndAt(t)
	c.span = nil
}

// Overlap runs work, which belongs to stage, while another stage's
// wall time is passing, and moves the time work took from the running
// stage to stage: the total is conserved and the spans are untouched.
// It exists for one case — request frames sealed while earlier frames
// are on the wire — where it keeps table_build meaning "time spent
// sealing" and rpc "send-to-response wall time minus the sealing it
// overlapped".
func (c *Clock) Overlap(stage int, work func() error) error {
	if c.fam == nil {
		return work()
	}
	t0 := now()
	err := work()
	d := now().Sub(t0)
	c.d[stage] += d
	if c.cur != 0 {
		c.d[c.cur-1] -= d
	}
	return err
}

// Done ends the access — the running stage and the root span, on one
// clock reading — and reports it: failed of its accesses failed (a round
// carries several). label is called only if the slow log retains the
// entry.
func (c *Clock) Done(accesses, failed int, label func() string) {
	if c.fam == nil {
		return
	}
	if c.cur != 0 || c.root != nil {
		t := now()
		if c.cur != 0 {
			c.close(t)
		}
		c.root.EndAt(t)
	}
	c.fam.report(time.Time{}, c.root.TraceID(), accesses, failed, label, c.d[:len(c.fam.names)])
}

// Now reads the family's clock for a caller that will Record: zero,
// with no reading, on an unmetered family, whose Record discards
// everything anyway.
func (s *Stages) Now() time.Time {
	if s == nil || s.access == nil {
		return time.Time{}
	}
	return now()
}

// Record reports one access whose stage durations the caller already
// holds, in declaration order — a single access's wait for its key and
// its share of the chain's round — exactly as a Clock's Done would.
func (s *Stages) Record(at time.Time, traceID uint64, failed int, label func() string, d ...time.Duration) {
	if s != nil && s.access != nil {
		s.report(at, traceID, 1, failed, label, d)
	}
}

// report is where an access reaches the sinks: the failed count always;
// and, given at least one success, every stage's time, their sum as the
// end-to-end observation (so stage sums add up to the end-to-end sum
// exactly, and all counts agree), and the slow-log entry.
func (s *Stages) report(at time.Time, traceID uint64, accesses, failed int, label func() string, d []time.Duration) {
	s.errors.Add(int64(failed))
	if s.access == nil || failed >= accesses {
		return
	}
	var total time.Duration
	for i, di := range d {
		s.stage[i].Observe(di)
		total += di
	}
	s.access.ObserveExemplar(total, traceID)
	if !s.slow.worthy(total) {
		return
	}
	if at.IsZero() {
		at = now()
	}
	e := Trace{At: at, Label: label(), Total: total, TraceID: traceID, Stages: make([]Stage, len(d))}
	for i, di := range d {
		e.Stages[i] = Stage{Name: s.names[i], D: di}
	}
	s.slow.record(e)
}

// An Interval times one stretch of work, in one piece or several, into
// a histogram and a span; either may be nil, and with both nil it never
// reads the clock. It is the single-interval counterpart of a Clock,
// for a handler or a call with no stages inside.
type Interval struct {
	h  *Histogram
	sp *trace.Span
	t0 time.Time     // when the running piece began; zero while paused
	d  time.Duration // finished pieces
}

// Time starts an interval that End will observe into h and end sp on.
func Time(h *Histogram, sp *trace.Span) Interval {
	iv := Interval{h: h, sp: sp}
	iv.Resume()
	return iv
}

// Pause ends the running piece; the time until Resume is not counted.
func (iv *Interval) Pause() {
	if !iv.t0.IsZero() {
		iv.d += now().Sub(iv.t0)
		iv.t0 = time.Time{}
	}
}

// Resume begins another piece of a paused interval.
func (iv *Interval) Resume() {
	if iv.h != nil || iv.sp != nil {
		iv.t0 = now()
	}
}

// End observes the pieces' total and ends the span. An interval that is
// dropped without End reports nothing.
func (iv *Interval) End() {
	iv.Pause()
	iv.h.Observe(iv.d)
	iv.sp.End()
}
