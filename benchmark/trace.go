package main

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Boundary tracing. The tiers are handed their listeners and dial
// functions by the benchmark, so it can stamp the first and last byte
// crossing each tier boundary without touching the tiers themselves.
// With one access in flight every stamp between a call's start and its
// return belongs to that call, which makes the spans unambiguous.

type boundary uint8

const (
	atFrontEnd boundary = iota // conns the proxy accepts from end users
	atProxyOut                 // conns the proxy dials toward the server
	atServer                   // conns the server accepts from the proxy
)

// stamps are the boundary crossings of one access, as offsets from the
// recorder's base time. Zero means the crossing was not seen.
type stamps struct {
	feRead    time.Duration // last request byte read at the front end
	pxWrite0  time.Duration // first byte written toward the server
	pxWrite1  time.Duration // last request byte written
	svRead    time.Duration // last request byte read by the server
	svWrite   time.Duration // first response byte written by the server
	pxRead    time.Duration // last response byte read by the proxy
	feWrite   time.Duration // reply to the end user about to be written
	pxWrites  int
	pxReads   int
	svWrites  int
	reqBytes  int64
	respBytes int64
}

type recorder struct {
	base time.Time
	on   atomic.Bool
	mu   sync.Mutex
	cur  stamps
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.base) }

// begin starts recording one access; end stops and returns its stamps.
func (r *recorder) begin() {
	r.mu.Lock()
	r.cur = stamps{}
	r.mu.Unlock()
	r.on.Store(true)
}

func (r *recorder) end() stamps {
	r.on.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

func (r *recorder) read(b boundary, n int) {
	t := r.now()
	r.mu.Lock()
	switch b {
	case atFrontEnd:
		r.cur.feRead = t
	case atProxyOut:
		r.cur.pxRead = t
		r.cur.pxReads++
		r.cur.respBytes += int64(n)
	case atServer:
		r.cur.svRead = t
	}
	r.mu.Unlock()
}

// writing records a write about to start. Stamping before the write
// matters at the front end and the server: the peer can have the bytes,
// and the access can be over, before the writer's own call returns.
func (r *recorder) writing(b boundary, n int) {
	t := r.now()
	r.mu.Lock()
	switch b {
	case atFrontEnd:
		r.cur.feWrite = t
	case atProxyOut:
		if r.cur.pxWrites == 0 {
			r.cur.pxWrite0 = t
		}
		r.cur.pxWrites++
		r.cur.reqBytes += int64(n)
	case atServer:
		if r.cur.svWrites == 0 {
			r.cur.svWrite = t
		}
		r.cur.svWrites++
	}
	r.mu.Unlock()
}

// wroteRequest records the end of a write toward the server; the last
// one is when the request's last byte left the proxy.
func (r *recorder) wroteRequest() {
	t := r.now()
	r.mu.Lock()
	r.cur.pxWrite1 = t
	r.mu.Unlock()
}

type tracedConn struct {
	net.Conn
	r *recorder
	b boundary
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.r.on.Load() {
		c.r.read(c.b, n)
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.r.on.Load() {
		return c.Conn.Write(p)
	}
	c.r.writing(c.b, len(p))
	n, err := c.Conn.Write(p)
	if c.b == atProxyOut {
		c.r.wroteRequest()
	}
	return n, err
}

type tracedListener struct {
	net.Listener
	r *recorder
	b boundary
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, r: l.r, b: l.b}, nil
}

// wrapListener and wrapDial pass l and dial through unchanged when r is
// nil, which is how the untraced end-to-end run deploys.
func (r *recorder) wrapListener(l net.Listener, b boundary) net.Listener {
	if r == nil {
		return l
	}
	return &tracedListener{Listener: l, r: r, b: b}
}

func (r *recorder) wrapDial(dial func() (net.Conn, error), b boundary) func() (net.Conn, error) {
	if r == nil {
		return dial
	}
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return &tracedConn{Conn: c, r: r, b: b}, nil
	}
}

// A span is one layer's share of one access.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent string        `json:"parent"`
	Access int           `json:"access_id"`
}

// Span names; the per-layer metric is the name plus "_us", and it
// reports the span's self time.
const (
	spanCall    = "client.call" // its self time is client.hop_us: front-end framing both ways
	spanProxy   = "core.proxy"
	spanPreSend = "core.proxy.pre_send"
	spanSend    = "core.proxy.send"
	spanLinkReq = "link.req"
	spanHandle  = "core.server.handle"
	spanLinkRsp = "link.resp"
	spanRecover = "core.proxy.recover"
)

// spans lays one access's stamps out as a tree: the call is the root,
// the proxy's residence is its child, and the six stages between
// consecutive stamps are the proxy span's children.
func (s stamps) spans(access int, callStart, callEnd time.Duration) []span {
	mk := func(name, parent string, start, end time.Duration) span {
		return span{Name: name, Start: start, End: end, Parent: parent, Access: access}
	}
	return []span{
		mk(spanCall, "", callStart, callEnd),
		mk(spanProxy, spanCall, s.feRead, s.feWrite),
		mk(spanPreSend, spanProxy, s.feRead, s.pxWrite0),
		mk(spanSend, spanProxy, s.pxWrite0, s.pxWrite1),
		mk(spanLinkReq, spanProxy, s.pxWrite1, s.svRead),
		mk(spanHandle, spanProxy, s.svRead, s.svWrite),
		mk(spanLinkRsp, spanProxy, s.svWrite, s.pxRead),
		mk(spanRecover, spanProxy, s.pxRead, s.feWrite),
	}
}

// selfTimes returns, for the spans of one access, each span's duration
// minus the part of it its children cover. A span that ends before it
// starts counts as empty, and children are clipped to their parent, so
// stamps that arrived out of order show up as self times that no
// longer sum to the root's duration.
func selfTimes(spans []span) map[string]time.Duration {
	self := make(map[string]time.Duration, len(spans))
	for _, p := range spans {
		if p.End <= p.Start {
			self[p.Name] = 0
			continue
		}
		var kids []span
		for _, c := range spans {
			if c.Parent == p.Name && c.End > c.Start {
				kids = append(kids, c)
			}
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), p.Start
		for _, c := range kids {
			start, end := max(c.Start, edge), min(c.End, p.End)
			if end > start {
				covered += end - start
				edge = end
			}
		}
		self[p.Name] = p.End - p.Start - covered
	}
	return self
}
