package obs

import (
	"fmt"
	"sync"
	"time"
)

// A ShapeAuditor continuously verifies ORTOA's transcript-shape
// invariant in a live deployment: every access frame of a given
// message type and class (for batches, the batch size) must be
// byte-identical in length, whichever operation — read or write — it
// carries. The unit tests pin this property for fixed workloads; the
// auditor turns it into a production alarm by watching every frame a
// proxy or server actually exchanges.
//
// The auditor records per-message-type frame counts and length
// distributions for all traffic, and additionally pins the first
// observed length of each (direction, message type, class) marked
// strict by the classifier. Any later frame of the same class with a
// different length increments ortoa_obliviousness_shape_violations_total
// and fails the process's /healthz — a length divergence means the
// deployment is leaking information the protocol promises to hide, and
// should page someone.
type ShapeAuditor struct {
	violations *Counter
	reg        *Registry
	proc       string

	mu            sync.Mutex
	pinned        map[shapeClass]int // first-seen payload length per strict class
	frames        map[shapeSeries]*Counter
	lengths       map[shapeSeries]*Histogram
	lastViolation string
}

type shapeClass struct {
	dir     string
	msgType byte
	class   uint64
}

type shapeSeries struct {
	dir     string
	msgType byte
}

// NewShapeAuditor returns reg's auditor for the given process label
// ("proxy" or "server"), creating it on first use: it exports its
// counters under that label and registers a shape_<proc> health check
// that fails once any violation is seen. One registry has one auditor
// per label, like its violations counter and health check, so every
// endpoint of a process side is held to the same pinned lengths and a
// rebuilt endpoint to the ones its predecessor pinned. Returns nil on
// a nil registry; a nil auditor ignores all frames.
func NewShapeAuditor(reg *Registry, proc string) *ShapeAuditor {
	if reg == nil {
		return nil
	}
	reg.healthMu.Lock()
	a, ok := reg.auditors[proc]
	reg.healthMu.Unlock()
	if ok {
		return a
	}
	a = &ShapeAuditor{
		violations: reg.Counter(
			fmt.Sprintf(`ortoa_obliviousness_shape_violations_total{proc=%q}`, proc),
			"access frames whose length diverged from their class's pinned length (any nonzero value is an information leak)"),
		reg:     reg,
		proc:    proc,
		pinned:  make(map[shapeClass]int),
		frames:  make(map[shapeSeries]*Counter),
		lengths: make(map[shapeSeries]*Histogram),
	}
	reg.healthMu.Lock()
	if first, raced := reg.auditors[proc]; raced {
		reg.healthMu.Unlock()
		return first
	}
	reg.auditors[proc] = a
	reg.healthMu.Unlock()
	reg.Health("shape_"+proc, func() error {
		if n := a.violations.Value(); n > 0 {
			a.mu.Lock()
			last := a.lastViolation
			a.mu.Unlock()
			return fmt.Errorf("%d obliviousness shape violation(s); last: %s", n, last)
		}
		return nil
	})
	return a
}

// Observe records one frame payload: dir is "in" or "out" from this
// process's point of view, class partitions frames that are allowed to
// differ in length (batch size), and strict marks frames whose length
// the protocol requires to be constant within the class. Non-strict
// frames only feed the count/length distributions.
func (a *ShapeAuditor) Observe(dir string, msgType byte, class uint64, strict bool, length int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	series := shapeSeries{dir, msgType}
	c := a.frames[series]
	if c == nil {
		c = a.reg.Counter(
			fmt.Sprintf(`ortoa_shape_frames_total{proc=%q,type="0x%02x",dir=%q}`, a.proc, msgType, dir),
			"frames observed by the shape auditor, by message type and direction")
		a.frames[series] = c
		// Lengths ride the histogram's nanosecond scale as plain byte
		// counts — the buckets are log2 either way.
		a.lengths[series] = a.reg.Histogram(
			fmt.Sprintf(`ortoa_shape_frame_bytes{proc=%q,type="0x%02x",dir=%q}`, a.proc, msgType, dir),
			"payload length distribution, in bytes on the bucket scale")
	}
	h := a.lengths[series]
	var violated string
	if strict {
		key := shapeClass{dir, msgType, class}
		if pinned, ok := a.pinned[key]; !ok {
			a.pinned[key] = length
		} else if pinned != length {
			violated = fmt.Sprintf("proc=%s dir=%s type=0x%02x class=%d: length %d != pinned %d",
				a.proc, dir, msgType, class, length, pinned)
			a.lastViolation = violated
		}
	}
	a.mu.Unlock()
	c.Inc()
	h.Observe(time.Duration(length))
	if violated != "" {
		a.violations.Inc()
	}
}

// Violations returns the number of shape violations seen so far (0 for
// nil).
func (a *ShapeAuditor) Violations() int64 {
	if a == nil {
		return 0
	}
	return a.violations.Value()
}
