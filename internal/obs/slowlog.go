package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A Stage is one timed segment of a traced request.
type Stage struct {
	Name string
	D    time.Duration
}

// A Trace is one retained per-request record: the request's total
// latency and its per-stage breakdown. Label identifies the request
// non-sensitively (the proxy uses a truncated key digest, never the
// plaintext key); TraceID, when nonzero, is the request's span tree on
// /trace. Entries are written by a stage family's report (stages.go)
// and nowhere else.
type Trace struct {
	At      time.Time
	Label   string
	Total   time.Duration
	TraceID uint64
	Stages  []Stage
}

// A SlowLog retains the slowest N requests seen, so the tail of the
// latency distribution — the P99 accesses that histograms summarize
// away — can be inspected stage by stage. Admission is a single atomic
// threshold load on the hot path; only requests slower than the
// current N-th slowest take the lock. A nil SlowLog rejects
// everything.
type SlowLog struct {
	name string
	cap  int

	// floor is the smallest retained total once the log is full; 0
	// until then. Requests at or below it are rejected lock-free.
	floor atomic.Int64

	mu      sync.Mutex
	entries []Trace // sorted descending by Total
}

func newSlowLog(name string, capacity int) *SlowLog {
	if capacity <= 0 {
		capacity = 32
	}
	return &SlowLog{name: name, cap: capacity}
}

// worthy reports whether a request with the given total would be
// retained — checked before materializing a Trace, keeping the common
// (fast-request) path allocation-free.
func (l *SlowLog) worthy(total time.Duration) bool {
	return l != nil && int64(total) > l.floor.Load()
}

// record retains the trace if it is among the slowest seen. Callers
// gate on worthy first; record re-checks under the lock.
func (l *SlowLog) record(t Trace) {
	if l == nil || int64(t.Total) <= l.floor.Load() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Total < t.Total })
	if i >= l.cap {
		return // raced below the floor
	}
	if len(l.entries) < l.cap {
		l.entries = append(l.entries, Trace{})
	}
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = t
	if len(l.entries) == l.cap {
		l.floor.Store(int64(l.entries[len(l.entries)-1].Total))
	}
}

// Entries returns the retained traces, slowest first.
func (l *SlowLog) Entries() []Trace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Trace(nil), l.entries...)
}

// Len returns the number of retained traces.
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Name returns the log's registered name.
func (l *SlowLog) Name() string {
	if l == nil {
		return ""
	}
	return l.name
}

// WriteText renders the retained traces human-readably, one request
// per line with its stage breakdown.
func (l *SlowLog) WriteText(w io.Writer) error {
	if l == nil {
		return nil
	}
	for _, t := range l.Entries() {
		if _, err := fmt.Fprintf(w, "%s total=%v label=%s", t.At.Format(time.RFC3339Nano), t.Total, t.Label); err != nil {
			return err
		}
		if t.TraceID != 0 {
			if _, err := fmt.Fprintf(w, " trace=%016x", t.TraceID); err != nil {
				return err
			}
		}
		for _, s := range t.Stages {
			if _, err := fmt.Fprintf(w, " %s=%v", s.Name, s.D); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
