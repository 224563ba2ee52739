// Package transport implements the framed, pipelined RPC protocol that
// connects ORTOA clients, proxies, and storage servers.
//
// A frame is:
//
//	[4B little-endian frame length][8B session id][8B request id]
//	[16B trace ref][4B deadline budget][1B message type][1B flags][payload]
//
// where the length covers everything after the length field itself.
// The trace ref (wire.TraceRefLen) carries distributed-tracing span
// context — trace id and parent span id — and is all zeros when the
// request is untraced; being fixed-size and always present, it never
// changes frame lengths and so cannot leak operation types through the
// transcript shape (DESIGN.md §13). Responses echo the request's ref.
// The deadline budget (wire.BudgetLen) carries the caller's remaining
// time in milliseconds, restamped at every hop so it decrements across
// a client→proxy→server chain; zero means "no deadline". Like the
// trace ref it is fixed-size and always present, so deadline
// propagation never changes the transcript shape either (DESIGN.md
// §15). Requests and responses share the format; FlagResponse
// distinguishes them and FlagError marks a response whose payload is
// an error string. FlagBusy marks a shape-neutral admission rejection
// (MsgBusy) whose payload is a fixed-width retry-after hint.
// Multiple requests may be in flight on one connection; responses are
// matched by id, so a slow request does not stall the pipeline.
//
// A request too long for one frame travels as several frames sharing
// one id on one connection (CallStreamContextID): flagMore on every
// frame but the last, flagCont on every frame but the first, each
// continuation frame's budget field carrying its position so a lost or
// reordered frame fails the request instead of shortening it. There are
// no separate begin or end frames — the frames' payloads are simply
// consecutive runs of the request's bytes — and the response is the one
// ordinary frame.
//
// The session id gives the transport at-most-once semantics across
// connection failures: every Client stamps its frames with one random
// session id, request ids are unique within a session, and the server
// keeps a bounded per-session cache of completed responses (dedup.go).
// A retried request — same session, same id, possibly over a different
// pooled connection — is answered from the cache instead of being
// re-executed, so retrying after a lost response cannot apply a
// side-effecting handler twice. ORTOA's LBL proxy depends on this:
// replaying an access at a stale counter would desynchronize the label
// schedule from the server's records (§5.3.1), the one failure the
// proxy cannot recover from.
package transport

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
	"ortoa/internal/wire"
)

// Frame flags.
const (
	flagResponse = 1 << 0
	flagError    = 1 << 1
	flagBusy     = 1 << 2
	// flagMore marks a request frame that is not the last of its
	// request: further frames with the same (session, id) follow on the
	// same connection. A request that fits one frame carries neither
	// flagMore nor flagCont and is an ordinary call.
	flagMore = 1 << 3
	// flagCont marks a continuation frame: its payload is the next run
	// of bytes of the request a flagMore frame with the same id opened.
	// The handler dispatched for the head frame consumes continuations
	// through StreamFrom(ctx) and answers the whole request with one
	// response frame. A continuation frame's budget field carries its
	// position within the request instead of a deadline (the head frame
	// fixed the deadline), so the receiver rejects a request with a
	// lost or reordered frame instead of taking the remainder as
	// complete.
	flagCont = 1 << 4
)

// MsgBusy is the message type of an admission-rejection response: the
// server (or proxy front end) declined to execute the request because
// its admission queue is saturated or the request's deadline budget
// had already expired on arrival. The payload is always exactly
// wire.BudgetLen bytes — a little-endian retry-after hint in
// milliseconds — whatever the rejected request's type or operation, so
// shedding leaks nothing about what was shed. 0xFF keeps the type out
// of the protocol range core registers handlers for.
const MsgBusy byte = 0xFF

// MaxFrameSize caps a single frame; larger frames indicate corruption
// or abuse. LBL tables for multi-kilobyte values fit comfortably.
const MaxFrameSize = 64 << 20 // 64 MiB

const headerSize = 4 + 8 + 8 + wire.TraceRefLen + wire.BudgetLen + 1 + 1

// minFrameLen is the smallest valid value of the length field: the
// header bytes it covers (everything after the length field itself).
const minFrameLen = headerSize - 4

// Errors reported by the client.
var (
	// ErrClosed reports use of a closed client or server.
	ErrClosed = errors.New("transport: closed")
	// ErrFrameTooLarge reports a payload that cannot fit in one frame.
	ErrFrameTooLarge = errors.New("transport: frame exceeds max frame size")
	// ErrNoLiveConns reports that every pooled connection is currently
	// down. Calls fail fast with this error instead of queueing behind a
	// dead pool; the per-connection redial loops restore service in the
	// background, so a retry policy normally absorbs it.
	ErrNoLiveConns = errors.New("transport: no live connections in pool")
)

// A RemoteError is an error string returned by the peer's handler.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "transport: remote: " + e.Msg }

// replayEvictedMsg is the RemoteError a server returns for a replayed
// request whose handler DID execute but whose cached response bytes
// were evicted from the at-most-once cache. Silent re-execution would
// apply the request twice; instead the caller learns that its outcome
// is lost, which Ambiguous reports like a lost response.
const replayEvictedMsg = "at-most-once cache: request executed, cached response evicted"

// A NotSentError reports a streamed call that failed before any frame
// went on the wire: the outcome is definite — the peer never saw the
// request — so Ambiguous reports false for it and stateful callers may
// rebuild and reissue freely.
type NotSentError struct{ Err error }

func (e *NotSentError) Error() string { return "transport: not sent: " + e.Err.Error() }
func (e *NotSentError) Unwrap() error { return e.Err }

// AmbiguousMsgPrefix marks a RemoteError whose handler itself hit an
// ambiguous failure one hop further upstream (a proxy whose server
// round's outcome is unknown). Relays prefix their error text with it
// so ambiguity survives the handler-error → RemoteError flattening and
// multi-hop callers (client → proxy → server) can still classify.
const AmbiguousMsgPrefix = "outcome unknown: "

// BusyMsgPrefix marks a RemoteError whose handler was itself shed by
// an overloaded peer one hop further upstream (a proxy whose server
// rejected the round with MsgBusy before executing anything). Relays
// prefix their error text with it so the definite-but-backoff
// classification survives the handler-error → RemoteError flattening,
// exactly like AmbiguousMsgPrefix does for ambiguity.
const BusyMsgPrefix = "busy: "

// A BusyError is a MsgBusy admission rejection: the peer was saturated
// (or the request's deadline budget had expired on arrival) and
// definitively did not execute the request. RetryAfter is the peer's
// backoff hint; the client's RetryPolicy honors it as a minimum delay
// before the next attempt.
type BusyError struct{ RetryAfter time.Duration }

func (e *BusyError) Error() string {
	return fmt.Sprintf("transport: busy: overloaded, retry after %v", e.RetryAfter)
}

// IsBusy reports whether err is an overload rejection — a direct
// MsgBusy from the peer, or a relayed one (BusyMsgPrefix) from a hop
// further upstream. A busy request definitively did not execute:
// callers may retry it freely after backing off, and stateful callers
// never need ambiguity resolution for it.
func IsBusy(err error) bool {
	var be *BusyError
	if errors.As(err, &be) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && strings.HasPrefix(re.Msg, BusyMsgPrefix)
}

// Ambiguous reports whether err leaves the outcome of a call unknown:
// the request may or may not have executed on the server. Handler
// errors arrive in a response, so the server demonstrably executed the
// request and left its stores untouched — unambiguous, except when the
// handler says otherwise via AmbiguousMsgPrefix (it relayed the call
// and its own upstream outcome is unknown), and for a replay whose
// cached response was evicted (the handler ran, and what it returned is
// gone, so the caller knows no more than after a lost response). Local
// validation failures (oversized frame, client already closed) happen
// before anything is sent — also unambiguous. Everything else (send
// errors, lost connections, deadline expiry) is ambiguous: stateful
// callers must resolve the outcome (e.g. by replaying the same request
// id, which the server's dedup cache answers without re-executing)
// before issuing a conflicting request.
func Ambiguous(err error) bool {
	if err == nil {
		return false
	}
	var ns *NotSentError
	if errors.As(err, &ns) {
		// The stream failed before its first frame: nothing reached the
		// peer, so the call definitively did not execute.
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return strings.HasPrefix(re.Msg, AmbiguousMsgPrefix) || re.Msg == replayEvictedMsg
	}
	var be *BusyError
	if errors.As(err, &be) {
		// A MsgBusy rejection is a definite outcome: the peer refused
		// admission before the handler (and before the dedup cache), so
		// the request demonstrably did not execute.
		return false
	}
	return !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrClosed)
}

// maxPooledFrameBuf caps the coalesce buffers the frame pool retains,
// and the request buffers the request pools do (requestBuf); rare
// multi-megabyte batch frames are left to the garbage collector rather
// than pinned for the process lifetime.
const (
	maxPooledFrameShift = 22
	maxPooledFrameBuf   = 1 << maxPooledFrameShift // 4 MiB
)

// frameBufPool recycles the per-frame coalesce buffer of writeFrame.
// net.Conn.Write must not retain its argument past return, so the
// buffer's ownership round-trips cleanly: taken, filled, written,
// returned. The pool stores *[]byte to avoid boxing on Put.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeFrame emits one frame as exactly one conn.Write call: header
// and payload are coalesced into a single pooled buffer. One write per
// frame costs large frames an extra copy, but it buys two things: one
// syscall (and one TCP segment under TCP_NODELAY) for the common small
// frame, and frame-atomic failure semantics — a transport whose writes
// can be dropped whole (netsim partitions, a userspace proxy's queue
// overflow) then loses complete frames, never a frame's tail, so the
// peer's framing stays intact across every injected fault.
func writeFrame(w io.Writer, session, id uint64, tr trace.SpanContext, budget uint32, msgType, flags byte, payload []byte) error {
	if len(payload) > MaxFrameSize-minFrameLen {
		return ErrFrameTooLarge
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(minFrameLen+len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:12], session)
	binary.LittleEndian.PutUint64(hdr[12:20], id)
	wire.PutTraceRef(hdr[20:20+wire.TraceRefLen], tr.TraceID, tr.SpanID)
	wire.PutBudget(hdr[36:36+wire.BudgetLen], budget)
	hdr[40] = msgType
	hdr[41] = flags
	if len(payload) == 0 {
		_, err := w.Write(hdr[:])
		return err
	}
	bp := frameBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], hdr[:]...)
	buf = append(buf, payload...)
	*bp = buf
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledFrameBuf {
		frameBufPool.Put(bp)
	}
	return err
}

// readFrame reads one frame from r into hdr, its reader's header
// buffer, and a payload of its own. A read loop owns one hdr for its
// connection's lifetime, so waiting for the next frame allocates
// nothing: everything a frame costs is allocated once its bytes arrive,
// never as the loop turns around after delivering the previous one.
func readFrame(r io.Reader, hdr *[headerSize]byte) (session, id uint64, tr trace.SpanContext, budget uint32, msgType, flags byte, payload []byte, err error) {
	session, id, tr, budget, msgType, flags, n, err := readHeader(r, hdr)
	if err != nil {
		return 0, 0, trace.SpanContext{}, 0, 0, 0, nil, err
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, trace.SpanContext{}, 0, 0, 0, nil, err
	}
	return session, id, tr, budget, msgType, flags, payload, nil
}

// readHeader reads one frame's header from r into hdr and returns its
// fields and the length of the payload that follows it.
func readHeader(r io.Reader, hdr *[headerSize]byte) (session, id uint64, tr trace.SpanContext, budget uint32, msgType, flags byte, n int, err error) {
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, trace.SpanContext{}, 0, 0, 0, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length < minFrameLen || length > MaxFrameSize {
		return 0, 0, trace.SpanContext{}, 0, 0, 0, 0, fmt.Errorf("transport: invalid frame length %d", length)
	}
	session = binary.LittleEndian.Uint64(hdr[4:12])
	id = binary.LittleEndian.Uint64(hdr[12:20])
	tr.TraceID, tr.SpanID = wire.TraceRef(hdr[20 : 20+wire.TraceRefLen])
	budget = wire.Budget(hdr[36 : 36+wire.BudgetLen])
	return session, id, tr, budget, hdr[40], hdr[41], int(length - minFrameLen), nil
}

// A HandlerFunc serves one request payload and returns the response
// payload. Returning an error sends a RemoteError to the caller. ctx
// carries the request's trace span (if the frame was traced and the
// server has a tracer); handlers start children of it via
// trace.StartChild and otherwise ignore it.
//
// The payload is lent, not given: the server reads every request frame
// into a recycled buffer and takes it back once the handler has
// returned. A handler copies what it keeps — into the store, a record, a
// key string — and never returns a slice of the payload: the
// at-most-once cache keeps the response to replay to a retry, long
// after the request's buffer holds another request. The continuation
// frames StreamReader.Next yields are lent the same way (see Next).
type HandlerFunc func(ctx context.Context, payload []byte) ([]byte, error)

// A ShapeClassifier maps a request payload to its obliviousness shape
// class for the ShapeAuditor: frames of the same message type and
// class must be byte-identical in length whichever operation they
// carry. class partitions legitimately different sizes (batch size);
// strictReq/strictResp say whether the request/response length is
// pinned within the class. Unclassified message types return
// (0, false, false) and feed only the length distributions. Of a
// multi-frame request only the first frame is shown to the classifier;
// the transport derives the other frames' classes from it (frameShape).
type ShapeClassifier func(msgType byte, payload []byte) (class uint64, strictReq, strictResp bool)

// An Observer sees exactly what a network adversary at the server
// sees: the message type and the request/response payload sizes of
// every exchange — including dedup replays, which the adversary
// observes like any other response. Security tests use it to check
// that reads and writes are indistinguishable at this boundary.
type Observer func(msgType byte, requestLen, responseLen int)

// serverMetrics is the server's wire-level instrumentation: what an
// operator needs to see load and saturation on a storage server or
// proxy front end.
type serverMetrics struct {
	framesIn, framesOut *obs.Counter
	bytesIn, bytesOut   *obs.Counter
	inflight            *obs.Gauge
	handlerLatency      *obs.Histogram
	handlerErrors       *obs.Counter
	connsOpen           *obs.Gauge
	dedupHits           *obs.Counter
}

// A Server dispatches inbound frames to handlers registered by message
// type. Handlers run concurrently, one goroutine per request — bounded,
// when LimitAdmission is set, by the admission queue (admission.go).
type Server struct {
	mu        sync.RWMutex
	handlers  map[byte]HandlerFunc
	observer  Observer
	closed    atomic.Bool
	conns     sync.WaitGroup
	lns       []net.Listener
	metrics   atomic.Pointer[serverMetrics]
	tracer    atomic.Pointer[trace.Tracer]
	dedup     *dedupCache
	admission atomic.Pointer[admission]

	shapeMu       sync.RWMutex
	shapeAud      *obs.ShapeAuditor
	shapeClassify ShapeClassifier

	connMu sync.Mutex
	open   map[net.Conn]struct{}
}

// NewServer returns a Server with no handlers registered.
func NewServer() *Server {
	return &Server{
		handlers: make(map[byte]HandlerFunc),
		open:     make(map[net.Conn]struct{}),
		dedup:    newDedupCache(),
	}
}

// Handle registers h for msgType, replacing any previous handler.
func (s *Server) Handle(msgType byte, h HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[msgType] = h
}

func (s *Server) handler(msgType byte) (HandlerFunc, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.handlers[msgType]
	return h, ok
}

// Instrument registers the server's wire metrics
// (ortoa_transport_server_*) with reg: frames and bytes in each
// direction, open connections, in-flight handlers, handler latency,
// and dedup-cache replays. Call before Serve; a nil registry leaves
// the server uninstrumented at zero cost.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.metrics.Store(&serverMetrics{
		framesIn:       reg.Counter(`ortoa_transport_server_frames_total{dir="in"}`, "frames by direction"),
		framesOut:      reg.Counter(`ortoa_transport_server_frames_total{dir="out"}`, "frames by direction"),
		bytesIn:        reg.Counter(`ortoa_transport_server_bytes_total{dir="in"}`, "wire bytes (incl. headers) by direction"),
		bytesOut:       reg.Counter(`ortoa_transport_server_bytes_total{dir="out"}`, "wire bytes (incl. headers) by direction"),
		inflight:       reg.Gauge("ortoa_transport_server_inflight_requests", "requests currently being handled"),
		handlerLatency: reg.Histogram("ortoa_transport_server_handler_seconds", "request handler latency"),
		handlerErrors:  reg.Counter("ortoa_transport_server_handler_errors_total", "handler invocations that returned an error"),
		connsOpen:      reg.Gauge("ortoa_transport_server_open_connections", "currently open client connections"),
		dedupHits:      reg.Counter("ortoa_transport_server_dedup_hits_total", "retried requests answered from the at-most-once cache without re-execution"),
	})
	// Admission metrics read through the atomic pointer at scrape time,
	// so Instrument and LimitAdmission may be called in either order.
	reg.GaugeFunc("ortoa_transport_server_admission_queue_depth", "requests waiting in the admission queue", func() int64 {
		if a := s.admission.Load(); a != nil {
			return a.depth.Load()
		}
		return 0
	})
	reg.CounterFunc("ortoa_transport_server_admission_shed_total", "requests rejected with MsgBusy because the admission queue was saturated", func() int64 {
		if a := s.admission.Load(); a != nil {
			return a.shed.Load()
		}
		return 0
	})
	reg.CounterFunc("ortoa_transport_server_admission_expired_total", "requests rejected with MsgBusy because their deadline budget expired before execution", func() int64 {
		if a := s.admission.Load(); a != nil {
			return a.expired.Load()
		}
		return 0
	})
}

// SetTracer installs a span tracer: every traced request frame starts
// a server-side span joined to the caller's trace, passed to the
// handler via ctx. A nil tracer (the default) disables server spans.
func (s *Server) SetTracer(t *trace.Tracer) {
	s.tracer.Store(t)
}

// AuditShape installs a continuous obliviousness shape auditor on the
// server: every exchanged frame is classified by classify and its
// payload length checked against the class's pinned length (shape.go).
// Error responses are observed but never length-checked — their
// payload is an error string, not protocol output.
func (s *Server) AuditShape(a *obs.ShapeAuditor, classify ShapeClassifier) {
	if a == nil || classify == nil {
		return
	}
	s.shapeMu.Lock()
	s.shapeAud, s.shapeClassify = a, classify
	s.shapeMu.Unlock()
}

// SetObserver installs an adversary's-eye traffic observer, invoked
// once per served request with the exchanged payload sizes.
func (s *Server) SetObserver(obs Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = obs
}

func (s *Server) observe(msgType byte, reqLen, respLen int) {
	s.mu.RLock()
	obs := s.observer
	s.mu.RUnlock()
	if obs != nil {
		obs(msgType, reqLen, respLen)
	}
}

// Serve accepts connections from l until l is closed or the server is
// closed. It always returns a non-nil error; after Close it returns
// ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.lns = append(s.lns, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() {
				return ErrClosed
			}
			return err
		}
		if !s.track(conn) {
			conn.Close() // raced with Close; refuse the connection
			continue
		}
		go func() {
			defer s.conns.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

// track registers an accepted connection for shutdown, or reports false
// if the server is already closed.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.open[conn] = struct{}{}
	// The shutdown WaitGroup is incremented under the same lock that
	// Close's closed-flag flip takes: an Add after the flip cannot
	// happen, so Add never races Close's Wait.
	s.conns.Add(1)
	if m := s.metrics.Load(); m != nil {
		m.connsOpen.Inc()
	}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.open, conn)
	s.connMu.Unlock()
	if m := s.metrics.Load(); m != nil {
		m.connsOpen.Dec()
	}
}

// streamFrameBuffer bounds how many undelivered continuation frames a
// handler can fall behind by before the connection's read loop blocks,
// back-pressuring the sender through TCP instead of buffering an
// unbounded request in server memory.
const streamFrameBuffer = 8

// A frameShape tracks one multi-frame request for the shape auditor.
// Only the head frame is self-describing; continuation frame k is
// audited under the head's class extended by k, which pins its length
// because senders cut frames by a rule over public parameters alone.
// The last frame's length — and the response's — also depends on how
// many elements the request carries, which the head frame cannot say,
// so their class folds in the request's total length.
type frameShape struct {
	head, last            uint64 // classes of the head frame and of the last frame
	strictReq, strictResp bool
	total                 int // request bytes so far
}

// cont accounts for the continuation frame at position k (the head is
// position 0), n bytes long, and returns its class.
func (fs *frameShape) cont(k uint32, n int, last bool) uint64 {
	fs.total += n
	c := fs.head ^ uint64(k)*0x9E3779B97F4A7C15
	if last {
		c ^= uint64(fs.total) * 0xC2B2AE3D27D4EB4F
		fs.last = c
	}
	return c
}

// response returns the class the request's response is audited under:
// the last frame's once the whole request went by, else the head's.
func (fs *frameShape) response(complete bool) uint64 {
	if complete {
		return fs.last
	}
	return fs.head
}

// A streamFrame is one continuation frame on its way to the handler.
type streamFrame struct {
	buf  *requestBuf // nil for the failure a lost frame stands for
	more bool        // further frames follow
	lost bool        // a frame before this one never arrived
}

// streamState is the read loop's record of one inbound multi-frame
// request.
type streamState struct {
	ch    chan streamFrame
	done  chan struct{} // closed when the handler has produced its response
	next  uint32        // position the next continuation frame must carry
	shape frameShape
}

// A StreamReader delivers the continuation frames of a multi-frame
// request to its handler, in order.
type StreamReader struct {
	st       *streamState
	connDone chan struct{} // closed when the carrying connection's read loop exits
	complete bool          // the handler consumed the request's last frame
	held     *requestBuf   // the payload Next returned last, lent to the handler
}

// Next returns the next continuation payload and whether further
// frames follow it. It blocks until a frame arrives, ctx expires, or
// the carrying connection is lost. A request one of whose frames was
// lost or reordered fails here: the frames that did arrive can never
// pass for the whole request.
//
// Like the head frame's payload (HandlerFunc), the payload is lent: the
// server takes its buffer back at the next call to Next, or when the
// handler returns, so the handler consumes a frame before it asks for
// the one after it and keeps nothing of it but copies.
func (sr *StreamReader) Next(ctx context.Context) (payload []byte, more bool, err error) {
	sr.held.release()
	sr.held = nil
	var f streamFrame
	select {
	case f = <-sr.st.ch:
	default:
		select {
		case f = <-sr.st.ch:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-sr.connDone:
			// Drain anything the read loop delivered before dying.
			select {
			case f = <-sr.st.ch:
			default:
				return nil, false, errors.New("transport: connection lost mid-request")
			}
		}
	}
	if f.lost {
		f.buf.release()
		return nil, false, errors.New("transport: request frame lost or out of order")
	}
	sr.complete = !f.more
	sr.held = f.buf
	return f.buf.payload, f.more, nil
}

type streamCtxKey struct{}

// StreamFrom returns the request's StreamReader when the handler was
// dispatched for the head of a multi-frame request, or nil when the
// payload is the whole request.
func StreamFrom(ctx context.Context) *StreamReader {
	sr, _ := ctx.Value(streamCtxKey{}).(*StreamReader)
	return sr
}

func (s *Server) shape() (*obs.ShapeAuditor, ShapeClassifier) {
	s.shapeMu.RLock()
	defer s.shapeMu.RUnlock()
	return s.shapeAud, s.shapeClassify
}

// serveConn reads request frames until the connection fails or Close
// interrupts the read via a deadline; either way it then waits for
// in-flight handlers to write their responses before closing the conn,
// so requests already accepted complete cleanly during shutdown.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	var wmu sync.Mutex // serializes response frames
	var pending sync.WaitGroup
	defer pending.Wait()
	// connDone closes before pending.Wait runs (defers are LIFO), so a
	// handler blocked on frames that will never arrive wakes up instead
	// of deadlocking shutdown.
	connDone := make(chan struct{})
	defer close(connDone)
	// streams tracks inbound multi-frame requests by request id. Only
	// this read loop touches the map; handlers see the frame channel.
	var streams map[uint64]*streamState
	var hdr [headerSize]byte
	for {
		sid, id, tr, budget, msgType, flags, n, err := readHeader(conn, &hdr)
		if err != nil {
			return // closed, draining, or corrupt; stop reading
		}
		buf := getRequestBuf(n)
		if _, err := io.ReadFull(conn, buf.payload); err != nil {
			buf.release()
			return
		}
		payload := buf.payload
		m := s.metrics.Load()
		if m != nil {
			m.framesIn.Inc()
			m.bytesIn.Add(int64(headerSize + len(payload)))
		}
		if flags&flagCont != 0 {
			// Every continuation frame crossed the wire, so every one is
			// shown to the observer and the auditor — strictly while its
			// request is open, as an unclassifiable orphan once the handler
			// has answered (early error, shed, dedup replay) or a frame
			// before it was lost.
			s.observe(msgType, len(payload), 0)
			st := streams[id]
			if st != nil {
				select {
				case <-st.done:
					st = nil
				default:
				}
			}
			f := streamFrame{buf: buf, more: flags&flagMore != 0}
			var class uint64
			var strict bool
			aud, _ := s.shape()
			if st != nil {
				if f.lost = budget != st.next; !f.lost && aud != nil {
					class, strict = st.shape.cont(st.next, len(payload), !f.more), st.shape.strictReq
				}
				st.next++
			}
			aud.Observe("in", msgType, class, strict, len(payload))
			if st == nil || f.lost || !f.more {
				delete(streams, id)
			}
			if st == nil {
				buf.release()
				continue
			}
			// A full buffer blocks this read loop — deliberate
			// backpressure — unless the handler finishes first.
			select {
			case st.ch <- f:
			case <-st.done:
				buf.release()
			}
			continue
		}
		// Rehydrate the frame's millisecond budget into an absolute
		// deadline at arrival time: queue time spent here counts against
		// the caller's remaining budget, exactly as wire time does.
		var deadline time.Time
		if budget > 0 {
			deadline = time.Now().Add(time.Duration(budget) * time.Millisecond)
		}
		var sr *StreamReader
		if flags&flagMore != 0 {
			// Head of a multi-frame request: open the stream, then
			// dispatch the head payload like any request with the reader
			// attached. (A request resent after it completed re-dispatches
			// here and is answered from the dedup cache like any retry.)
			if old := streams[id]; old != nil {
				// A second head for a request still arriving: what follows
				// can no longer be attributed to either, so the open request
				// fails as if a frame had been lost and this frame is dropped
				// like any orphan.
				delete(streams, id)
				select {
				case old.ch <- streamFrame{lost: true}:
					aud, _ := s.shape()
					aud.Observe("in", msgType, 0, false, len(payload))
					s.observe(msgType, len(payload), 0)
					buf.release()
					continue
				case <-old.done:
				}
			}
			st := &streamState{ch: make(chan streamFrame, streamFrameBuffer), done: make(chan struct{}), next: 1}
			if aud, classify := s.shape(); aud != nil {
				st.shape.head, st.shape.strictReq, st.shape.strictResp = classify(msgType, payload)
				st.shape.total = len(payload)
				aud.Observe("in", msgType, st.shape.head, st.shape.strictReq, len(payload))
			}
			if streams == nil {
				streams = make(map[uint64]*streamState)
			}
			streams[id] = st
			sr = &StreamReader{st: st, connDone: connDone}
		}
		pending.Add(1)
		go func() {
			defer pending.Done()
			if sr != nil {
				defer close(sr.st.done)
			}
			s.serveRequest(conn, &wmu, sid, id, tr, deadline, msgType, payload, m, sr)
			// The exchange is answered and audited: nothing reads the
			// request's frames any more.
			buf.release()
			if sr != nil {
				sr.held.release()
			}
		}()
	}
}

// serveRequest admits, executes, and answers one request (dispatched on
// its head frame when it spans several).
func (s *Server) serveRequest(conn net.Conn, wmu *sync.Mutex, sid, id uint64, tr trace.SpanContext, deadline time.Time, msgType byte, payload []byte, m *serverMetrics, sr *StreamReader) {
	var flags byte
	var resp []byte
	msgOut := msgType
	if adm := s.admission.Load(); adm != nil {
		switch adm.admit(deadline) {
		case admitRun:
			flags, resp = s.respondReleasing(adm, sid, id, tr, deadline, msgType, payload, m, sr)
		default: // admitShed, admitExpired — one wire shape for both
			msgOut, flags, resp = MsgBusy, flagResponse|flagBusy, adm.busyPayload()
		}
	} else {
		flags, resp = s.respond(sid, id, tr, deadline, msgType, payload, m, sr)
	}
	if m != nil {
		m.framesOut.Inc()
		m.bytesOut.Add(int64(headerSize + len(resp)))
	}
	s.observe(msgType, len(payload), len(resp))
	s.auditExchange(msgType, msgOut, payload, resp, flags, sr)
	wmu.Lock()
	// Responses echo the request's trace ref, so a traced
	// caller can stitch both directions into one trace.
	werr := writeFrame(conn, sid, id, tr, 0, msgOut, flags, resp)
	wmu.Unlock()
	if werr != nil {
		// A connection that cannot carry responses must not keep
		// accepting requests: tear it down so the read loop exits
		// and the client's pool redials. The response itself is
		// preserved in the dedup cache for the client's retry.
		conn.Close()
	}
}

// respondReleasing runs respond under an admission slot, releasing it
// however the handler exits. A multi-frame request holds its one slot
// throughout: admission happened at the head frame, and continuation
// frames ride the already-admitted call.
func (s *Server) respondReleasing(adm *admission, sid, id uint64, tr trace.SpanContext, deadline time.Time, msgType byte, payload []byte, m *serverMetrics, sr *StreamReader) (byte, []byte) {
	defer adm.release()
	return s.respond(sid, id, tr, deadline, msgType, payload, m, sr)
}

// auditExchange records one request/response pair with the shape
// auditor, if installed: the request under its own class (the read loop
// already recorded the frames of a multi-frame request), the response
// under the same class. Error responses are observed but never
// length-checked. A MsgBusy rejection is pinned strictly whatever was
// shed — every busy frame is wire.BudgetLen bytes — so the auditor
// proves shedding is operation-type invisible.
func (s *Server) auditExchange(msgType, msgOut byte, payload, resp []byte, flags byte, sr *StreamReader) {
	aud, classify := s.shape()
	if aud == nil {
		return
	}
	var class uint64
	var strictResp bool
	if sr == nil {
		var strictReq bool
		class, strictReq, strictResp = classify(msgType, payload)
		aud.Observe("in", msgType, class, strictReq, len(payload))
	} else {
		class, strictResp = sr.st.shape.response(sr.complete), sr.st.shape.strictResp
	}
	if msgOut == MsgBusy {
		strictResp = true
	} else if flags&flagError != 0 {
		strictResp = false
	}
	aud.Observe("out", msgOut, class, strictResp, len(resp))
}

// respond produces the response for one request frame: a dedup-cache
// replay if this (session, id) already completed, otherwise one
// handler execution whose outcome is cached before it is written, so a
// response lost on the wire can still be replayed to a retry.
func (s *Server) respond(sid, id uint64, tr trace.SpanContext, deadline time.Time, msgType byte, payload []byte, m *serverMetrics, sr *StreamReader) (byte, []byte) {
	var sess *dedupSession
	var entry *dedupEntry
	if sid != 0 {
		var isNew bool
		sess, entry, isNew = s.dedup.begin(sid, id)
		if !isNew {
			// Retry of an in-flight or completed request: wait for the
			// one execution and replay its outcome (the verbatim
			// response, or ReplayEvicted if only the fact of execution
			// survived eviction). No new span: the retried frame carries
			// the original trace ref, so the replayed response already
			// belongs to the original trace; the handler's one execution
			// recorded its span then.
			<-entry.done
			if m != nil {
				m.dedupHits.Inc()
			}
			return sess.replay(entry)
		}
	}
	var latency *obs.Histogram
	if m != nil {
		m.inflight.Inc()
		latency = m.handlerLatency
	}
	ctx := context.Background()
	if !deadline.IsZero() {
		// The frame's deadline budget becomes the handler's context
		// deadline, so protocol code can drop expired-on-arrival work
		// before any expensive step and downstream calls restamp the
		// decremented budget onto their own frames.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	if sr != nil {
		ctx = context.WithValue(ctx, streamCtxKey{}, sr)
	}
	var sp *trace.Span
	if t := s.tracer.Load(); t != nil {
		if sp = t.StartRemote(tr, "server_handle"); sp != nil {
			ctx = trace.ContextWith(ctx, sp)
		}
	}
	iv := obs.Time(latency, sp)
	h, ok := s.handler(msgType)
	var resp []byte
	flags := byte(flagResponse)
	if !ok {
		flags |= flagError
		resp = []byte(fmt.Sprintf("no handler for message type %d", msgType))
	} else if out, herr := h(ctx, payload); herr != nil {
		flags |= flagError
		resp = []byte(herr.Error())
	} else {
		resp = out
	}
	iv.End()
	if len(resp) > MaxFrameSize-minFrameLen {
		// An oversized response would fail the frame write and tear the
		// connection down; surface it to the caller as an error instead.
		flags |= flagError
		resp = []byte(fmt.Sprintf("transport: %d byte response exceeds max frame size", len(resp)))
	}
	if m != nil {
		m.inflight.Dec()
		if flags&flagError != 0 {
			m.handlerErrors.Inc()
		}
	}
	if entry != nil {
		sess.complete(id, entry, flags, resp)
	}
	return flags, resp
}

// Close stops all listeners, interrupts every open connection's read
// loop, waits for in-flight requests to finish writing their responses,
// and then closes the connections. It blocks until all connection
// goroutines have exited, so after Close returns no handler is running
// and no response is in flight. Close is idempotent.
func (s *Server) Close() error {
	// Setting closed under connMu means track() can never admit a
	// connection after the drain below has run.
	s.connMu.Lock()
	already := s.closed.Swap(true)
	var open []net.Conn
	if !already {
		open = make([]net.Conn, 0, len(s.open))
		for c := range s.open {
			open = append(open, c)
		}
	}
	s.connMu.Unlock()
	if already {
		return nil
	}
	s.mu.Lock()
	lns := s.lns
	s.lns = nil
	s.mu.Unlock()
	for _, l := range lns {
		l.Close()
	}
	// Expire reads immediately: serveConn's read loop returns, waits
	// for its pending handlers (whose response writes are unaffected by
	// the read deadline), then closes the conn.
	for _, c := range open {
		c.SetReadDeadline(time.Now()) //nolint:errcheck // best effort; Close below still terminates the conn
	}
	// Wake queued admission waiters (they answer busy) so pending
	// handlers cannot deadlock the conns.Wait below.
	if adm := s.admission.Load(); adm != nil {
		adm.close()
	}
	s.conns.Wait()
	return nil
}

// Stats counts traffic through a Client, for the communication-
// overhead accounting of §6.3.2 / Fig 3c.
type Stats struct {
	BytesSent     int64
	BytesReceived int64
	Calls         int64
}

// A RetryPolicy governs at-most-once retries of failed calls. Retries
// reuse the original request id, so a request whose response was lost
// is answered from the server's dedup cache instead of re-executing —
// safe even for side-effecting handlers. The policy never inspects the
// request, so reads and writes retry identically and the retry pattern
// leaks nothing about operation types.
type RetryPolicy struct {
	// Attempts is the total number of attempts per call, including the
	// first; values below 2 disable retries.
	Attempts int
	// Backoff is the delay before the first retry; each further retry
	// doubles it (plus up to 50% random jitter). Zero means 10ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Zero means 1s.
	MaxBackoff time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

// delay returns the backoff before retry number retry (0-based), with
// exponential growth and jitter.
func (p RetryPolicy) delay(retry int) time.Duration {
	base := p.Backoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = time.Second
	}
	d := base << uint(retry)
	if d > maxB || d <= 0 {
		d = maxB
	}
	return d + rand.N(d/2+1)
}

// Options tunes a Client's fault tolerance. The zero value (plus a
// pool size) reproduces the permissive defaults of Dial: no per-call
// deadline and no retries, with reconnection always on.
type Options struct {
	// PoolSize is the number of pooled connections (minimum 1).
	PoolSize int
	// CallTimeout bounds each call attempt; an attempt against a
	// stalled or blackholed server fails with context.DeadlineExceeded
	// after this long instead of hanging. Zero means no deadline.
	CallTimeout time.Duration
	// Retry governs at-most-once retries of failed attempts.
	Retry RetryPolicy
	// ReconnectBackoff is the initial delay between redial attempts for
	// a lost pooled connection; each failure doubles it (plus jitter),
	// up to reconnectMaxBackoff. Zero means 10ms.
	ReconnectBackoff time.Duration
}

// reconnectMaxBackoff caps the redial backoff.
const reconnectMaxBackoff = 2 * time.Second

func (o Options) reconnectBackoff() time.Duration {
	if o.ReconnectBackoff <= 0 {
		return 10 * time.Millisecond
	}
	return o.ReconnectBackoff
}

// clientMetrics is the client's wire-level instrumentation: call
// latency, pool pressure, and connection health.
type clientMetrics struct {
	inflight      *obs.Gauge
	poolSaturated *obs.Counter
	callLatency   *obs.Histogram
	callErrors    *obs.Counter
	connFailures  *obs.Counter
	reconnects    *obs.Counter
	retries       *obs.Counter
}

// A Client issues RPCs over a fixed-size pool of connections,
// pipelining concurrent calls. Lost connections redial in the
// background with exponential backoff; while a connection is down the
// round-robin skips it, and calls fail fast with ErrNoLiveConns only
// when the whole pool is down. It is safe for concurrent use.
type Client struct {
	dial    func() (net.Conn, error)
	opts    Options
	session uint64
	conns   []*clientConn
	next    atomic.Uint64
	reqID   atomic.Uint64
	closed  atomic.Bool
	metrics atomic.Pointer[clientMetrics]
	tracer  atomic.Pointer[trace.Tracer]

	shapeMu       sync.RWMutex
	shapeAud      *obs.ShapeAuditor
	shapeClassify ShapeClassifier

	bytesSent     atomic.Int64
	bytesReceived atomic.Int64
	calls         atomic.Int64
}

type clientConn struct {
	client *Client
	wmu    sync.Mutex // serializes frame writes on the current conn

	mu      sync.Mutex
	conn    net.Conn
	pending map[uint64]pendingCall
	dead    error // non-nil while disconnected; cleared by reconnect
}

// A pendingCall is one in-flight request on a connection. Besides the
// result channel it remembers the request's shape class, so the
// response frame can be audited against the same class on arrival.
type pendingCall struct {
	ch         chan result
	msgType    byte
	class      uint64
	strictResp bool
}

type result struct {
	payload []byte
	err     error
}

// newSessionID draws a random non-zero session id; zero is reserved
// for "no dedup" peers.
func newSessionID() uint64 {
	var buf [8]byte
	for {
		if _, err := cryptorand.Read(buf[:]); err != nil {
			// Rand never fails on supported platforms; fall back to the
			// seeded process-global PRNG rather than aborting the dial.
			return rand.Uint64() | 1
		}
		if sid := binary.LittleEndian.Uint64(buf[:]); sid != 0 {
			return sid
		}
	}
}

// Dial connects a Client using dial to create poolSize connections,
// with default Options (no deadline, no retries).
func Dial(dial func() (net.Conn, error), poolSize int) (*Client, error) {
	return DialOptions(dial, Options{PoolSize: poolSize})
}

// DialOptions connects a Client with explicit fault-tolerance options.
// All opts.PoolSize initial connections must succeed; connections lost
// later redial in the background.
func DialOptions(dial func() (net.Conn, error), opts Options) (*Client, error) {
	if opts.PoolSize < 1 {
		opts.PoolSize = 1
	}
	c := &Client{dial: dial, opts: opts, session: newSessionID()}
	for i := 0; i < opts.PoolSize; i++ {
		nc, err := dial()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("transport: dial conn %d: %w", i, err)
		}
		cc := &clientConn{client: c, conn: nc, pending: make(map[uint64]pendingCall)}
		go cc.readLoop(nc)
		c.conns = append(c.conns, cc)
	}
	return c, nil
}

// Instrument registers the client's wire metrics
// (ortoa_transport_client_*) with reg: the cumulative Stats counters,
// in-flight calls, pool saturation, call latency, connection
// failures, reconnects, and retries. Call before issuing RPCs; a nil
// registry leaves the client uninstrumented at zero cost.
func (c *Client) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("ortoa_transport_client_bytes_sent_total", "wire bytes (incl. headers) written", c.bytesSent.Load)
	reg.CounterFunc("ortoa_transport_client_bytes_received_total", "wire bytes (incl. headers) read", c.bytesReceived.Load)
	reg.CounterFunc("ortoa_transport_client_calls_total", "RPC calls issued", c.calls.Load)
	c.metrics.Store(&clientMetrics{
		inflight:      reg.Gauge("ortoa_transport_client_inflight_calls", "calls awaiting a response"),
		poolSaturated: reg.Counter("ortoa_transport_client_pool_saturated_total", "calls issued while every pooled connection already carried one in flight"),
		callLatency:   reg.Histogram("ortoa_transport_client_call_seconds", "RPC round-trip latency, send to response"),
		callErrors:    reg.Counter("ortoa_transport_client_call_errors_total", "calls that returned an error"),
		connFailures:  reg.Counter("ortoa_transport_client_conn_failures_total", "pooled connections lost to read errors"),
		reconnects:    reg.Counter("ortoa_transport_client_reconnects_total", "pooled connections restored by the redial loop"),
		retries:       reg.Counter("ortoa_transport_client_retries_total", "call attempts beyond the first (at-most-once, same request id)"),
	})
}

// SetTracer installs a span tracer used when a call's context carries
// no span of its own: each attempt then starts a fresh root trace.
// Calls whose ctx already carries a span (the proxy's rpc stage)
// always join that trace regardless of this tracer.
func (c *Client) SetTracer(t *trace.Tracer) {
	c.tracer.Store(t)
}

// AuditShape installs a continuous obliviousness shape auditor on the
// client: request payloads are classified and length-checked as they
// are sent, responses as they arrive (matched to their request's
// class). Error responses are observed but never length-checked.
func (c *Client) AuditShape(a *obs.ShapeAuditor, classify ShapeClassifier) {
	if a == nil || classify == nil {
		return
	}
	c.shapeMu.Lock()
	c.shapeAud, c.shapeClassify = a, classify
	c.shapeMu.Unlock()
}

func (c *Client) shape() (*obs.ShapeAuditor, ShapeClassifier) {
	c.shapeMu.RLock()
	defer c.shapeMu.RUnlock()
	return c.shapeAud, c.shapeClassify
}

// NextID reserves a fresh request id. Combined with CallContextID it
// lets stateful callers replay a request byte-for-byte after an
// ambiguous failure: the server's dedup cache answers the replay
// without re-executing if the original attempt did execute.
func (c *Client) NextID() uint64 { return c.reqID.Add(1) }

// Call sends payload as a msgType request and blocks for the response,
// applying the client's configured deadline and retry policy.
func (c *Client) Call(msgType byte, payload []byte) ([]byte, error) {
	return c.CallContext(context.Background(), msgType, payload)
}

// CallContext is Call with caller-controlled cancellation: the call
// (including retries and backoff) aborts when ctx is done. The
// configured CallTimeout additionally bounds each individual attempt.
func (c *Client) CallContext(ctx context.Context, msgType byte, payload []byte) ([]byte, error) {
	return c.CallContextID(ctx, c.NextID(), msgType, payload)
}

// CallContextID is CallContext with an explicit request id, for
// replaying a previously-attempted request under at-most-once
// semantics. ids must come from NextID; reusing an id with a different
// payload returns the original request's cached response, not the new
// payload's.
func (c *Client) CallContextID(ctx context.Context, id uint64, msgType byte, payload []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if len(payload) > MaxFrameSize-minFrameLen {
		return nil, ErrFrameTooLarge
	}
	return c.do(ctx, id, msgType, payload, nil)
}

// do is the one instrumented call, for a request of one frame (payload)
// or of several (produce): in-flight and pool-saturation accounting,
// send-to-response latency across every attempt, and the error count.
func (c *Client) do(ctx context.Context, id uint64, msgType byte, payload []byte, produce frameProducer) ([]byte, error) {
	m := c.metrics.Load()
	var latency *obs.Histogram
	if m != nil {
		if m.inflight.Inc() > int64(len(c.conns)) {
			m.poolSaturated.Inc()
		}
		latency = m.callLatency
	}
	iv := obs.Time(latency, nil)
	resp, err := c.callRetry(ctx, id, msgType, payload, produce, m)
	iv.End()
	if m != nil {
		m.inflight.Dec()
		if err != nil {
			m.callErrors.Inc()
		}
	}
	return resp, err
}

// A frameProducer writes a multi-frame request: it calls send once per
// frame, in order, marking the last (see CallStreamContextID).
type frameProducer = func(send func(payload []byte, last bool) error) error

// errStreamDone is the sentinel send returns once the peer has already
// answered (busy, error, or early response): the producer should stop
// sending and let the call return that response.
var errStreamDone = errors.New("transport: request already answered")

// CallStreamContextID issues one request whose payload is too long for
// one frame as several frames sharing the request id: produce calls
// send once per frame, in order, marking the last; the call then blocks
// for the single response frame. The payload passed to send is copied
// before send returns, so the producer may reuse one buffer across
// frames — peak memory stays bounded by the frame size.
//
// Multi-frame requests are conn-affine (every frame rides one pooled
// connection, in order) and never retried by the transport: a failure
// after the first frame is ambiguous exactly like a one-frame send
// failure, and a failure before it is reported as a *NotSentError,
// which Ambiguous classifies as definite. send returns errStreamDone
// (an internal sentinel) once the peer has answered early; produce
// should return any error from send unchanged.
func (c *Client) CallStreamContextID(ctx context.Context, id uint64, msgType byte, produce func(send func(payload []byte, last bool) error) error) ([]byte, error) {
	if c.closed.Load() {
		return nil, &NotSentError{Err: ErrClosed}
	}
	resp, err := c.do(ctx, id, msgType, nil, produce)
	if errors.Is(err, ErrNoLiveConns) {
		err = &NotSentError{Err: err}
	}
	return resp, err
}

// callStream runs one multi-frame call on this connection. All frames
// are written under wmu in producer order, so they arrive in sequence.
func (cc *clientConn) callStream(ctx context.Context, id uint64, tr trace.SpanContext, msgType byte, produce frameProducer) ([]byte, error) {
	pc := pendingCall{ch: make(chan result, 1), msgType: msgType}
	aud, classify := cc.client.shape()
	var shape frameShape
	var sent uint32   // frames written so far
	var conn net.Conn // pinned at registration: the whole request rides one physical conn
	var early *result
	send := func(payload []byte, last bool) error {
		if early != nil {
			return errStreamDone
		}
		if sent > 0 {
			// An early response (busy, handler error) aborts the
			// producer: the remaining frames would only be dropped.
			select {
			case res := <-pc.ch:
				early = &res
				return errStreamDone
			default:
			}
		}
		if len(payload) > MaxFrameSize-minFrameLen {
			return ErrFrameTooLarge
		}
		// The head frame carries the caller's remaining budget; a
		// continuation frame carries its position instead, but still
		// refuses to go out once the caller's deadline has passed.
		budget, err := callBudget(ctx)
		if err != nil {
			return err
		}
		var flags byte
		if !last {
			flags |= flagMore
		}
		if sent == 0 {
			if aud != nil {
				shape.head, shape.strictReq, shape.strictResp = classify(msgType, payload)
				shape.total = len(payload)
				aud.Observe("out", msgType, shape.head, shape.strictReq, len(payload))
				pc.class, pc.strictResp = shape.head, shape.strictResp
			}
			cc.mu.Lock()
			if cc.dead != nil {
				err := cc.dead
				cc.mu.Unlock()
				return err
			}
			conn = cc.conn
			cc.pending[id] = pc
			cc.mu.Unlock()
		} else {
			flags |= flagCont
			budget = sent
			if aud != nil {
				aud.Observe("out", msgType, shape.cont(sent, len(payload), last), shape.strictReq, len(payload))
				if last {
					// The response is audited under the last frame's class.
					pc.class = shape.last
					cc.mu.Lock()
					if _, ok := cc.pending[id]; ok {
						cc.pending[id] = pc
					}
					cc.mu.Unlock()
				}
			}
		}
		sent++
		cc.wmu.Lock()
		err = writeFrame(conn, cc.client.session, id, tr, budget, msgType, flags, payload)
		cc.wmu.Unlock()
		if err != nil {
			return fmt.Errorf("transport: send: %w", err)
		}
		cc.client.bytesSent.Add(int64(headerSize + len(payload)))
		return nil
	}
	perr := produce(send)
	if perr != nil && !errors.Is(perr, errStreamDone) {
		if sent > 0 {
			cc.mu.Lock()
			delete(cc.pending, id)
			cc.mu.Unlock()
			// At least the head frame may have reached the peer: the
			// outcome is unknown, exactly like a one-frame send failure.
			return nil, perr
		}
		return nil, &NotSentError{Err: perr}
	}
	if sent == 0 {
		// produce sent nothing and reported success — a producer bug,
		// but a definite one.
		return nil, &NotSentError{Err: errors.New("transport: request produced no frames")}
	}
	cc.client.calls.Add(1)
	if early != nil {
		return early.payload, early.err
	}
	select {
	case res := <-pc.ch:
		return res.payload, res.err
	case <-ctx.Done():
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		return nil, ctx.Err()
	}
}

func (c *Client) callRetry(ctx context.Context, id uint64, msgType byte, payload []byte, produce frameProducer, m *clientMetrics) ([]byte, error) {
	attempts := c.opts.Retry.attempts()
	if produce != nil {
		// The frames are produced once, as they are sent: there is
		// nothing to send again.
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.attempt(ctx, id, msgType, payload, produce)
		if err == nil {
			return resp, nil
		}
		if !retryable(err) || ctx.Err() != nil || c.closed.Load() || attempt+1 >= attempts {
			return nil, err
		}
		if m != nil {
			m.retries.Inc()
		}
		d := c.opts.Retry.delay(attempt)
		// A busy peer's retry-after hint is a floor on the backoff:
		// retrying sooner would only be shed again.
		var be *BusyError
		if errors.As(err, &be) && be.RetryAfter > d {
			d = be.RetryAfter
		}
		if serr := sleepCtx(ctx, d); serr != nil {
			return nil, err
		}
	}
}

// attempt issues one try of a call, of one frame or several, on the
// next live pooled connection, bounded by the per-attempt CallTimeout.
// Each attempt gets its own transport_attempt span — a child of the
// caller's span when ctx carries one, a fresh root when only the
// client's own tracer is set — and the attempt's span context rides the
// frame header, so retries reuse the request id AND the trace id: a
// response replayed from the server's dedup cache lands in the original
// trace.
func (c *Client) attempt(ctx context.Context, id uint64, msgType byte, payload []byte, produce frameProducer) ([]byte, error) {
	cc := c.pickConn()
	if cc == nil {
		return nil, ErrNoLiveConns
	}
	sp := trace.StartChild(ctx, "transport_attempt")
	if sp == nil {
		sp = c.tracer.Load().StartRoot("transport_attempt")
	}
	defer sp.End()
	if c.opts.CallTimeout > 0 {
		actx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
		defer cancel()
		ctx = actx
	}
	if produce != nil {
		return cc.callStream(ctx, id, sp.Context(), msgType, produce)
	}
	return cc.call(ctx, id, sp.Context(), msgType, payload)
}

// pickConn returns the next live connection in round-robin order, or
// nil if the whole pool is down.
func (c *Client) pickConn() *clientConn {
	n := uint64(len(c.conns))
	start := c.next.Add(1)
	for i := uint64(0); i < n; i++ {
		cc := c.conns[(start+i)%n]
		cc.mu.Lock()
		down := cc.dead != nil
		cc.mu.Unlock()
		if !down {
			return cc
		}
	}
	return nil
}

// PoolSize returns the number of pooled connections, live or not.
func (c *Client) PoolSize() int { return len(c.conns) }

// retryable classifies call errors: remote handler errors mean the
// request executed (a retry would only replay the same error), and
// local validation errors cannot succeed on retry. A busy rejection is
// retryable — the request never executed and the peer asked for
// backoff, which callRetry honors. Everything else — send failures,
// lost connections, attempt deadlines, an all-dead pool — is
// transient.
func retryable(err error) bool {
	var be *BusyError
	if errors.As(err, &be) {
		return true
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrClosed)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns cumulative traffic counters.
func (c *Client) Stats() Stats {
	return Stats{
		BytesSent:     c.bytesSent.Load(),
		BytesReceived: c.bytesReceived.Load(),
		Calls:         c.calls.Load(),
	}
}

// Close tears down all connections; outstanding calls fail and redial
// loops stop.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, cc := range c.conns {
		if cc == nil {
			continue
		}
		cc.mu.Lock()
		conn := cc.conn
		cc.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	}
	return nil
}

// callBudget converts the context's remaining time into the frame's
// millisecond deadline budget: zero when no deadline, else at least 1
// (sub-millisecond remainders round up — a positive remainder must not
// stamp "no deadline"). Stamping happens at send time from wall-clock
// remaining, so a proxy relaying a call naturally forwards a budget
// already decremented by its own queueing and compute.
func callBudget(ctx context.Context) (uint32, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, nil
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return 0, context.DeadlineExceeded
	}
	millis := int64((rem + time.Millisecond - 1) / time.Millisecond)
	if millis > int64(^uint32(0)) {
		return ^uint32(0), nil
	}
	return uint32(millis), nil
}

func (cc *clientConn) call(ctx context.Context, id uint64, tr trace.SpanContext, msgType byte, payload []byte) ([]byte, error) {
	budget, err := callBudget(ctx)
	if err != nil {
		// The budget is already exhausted: sending would only make the
		// peer shed it. Nothing went on the wire.
		return nil, err
	}
	pc := pendingCall{ch: make(chan result, 1), msgType: msgType}
	aud, classify := cc.client.shape()
	if aud != nil {
		var strictReq bool
		pc.class, strictReq, pc.strictResp = classify(msgType, payload)
		aud.Observe("out", msgType, pc.class, strictReq, len(payload))
	}
	cc.mu.Lock()
	if cc.dead != nil {
		err := cc.dead
		cc.mu.Unlock()
		return nil, err
	}
	conn := cc.conn
	cc.pending[id] = pc
	cc.mu.Unlock()

	cc.wmu.Lock()
	err = writeFrame(conn, cc.client.session, id, tr, budget, msgType, 0, payload)
	cc.wmu.Unlock()
	if err != nil {
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		return nil, fmt.Errorf("transport: send: %w", err)
	}
	cc.client.bytesSent.Add(int64(headerSize + len(payload)))
	cc.client.calls.Add(1)

	select {
	case res := <-pc.ch:
		return res.payload, res.err
	case <-ctx.Done():
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		return nil, ctx.Err()
	}
}

// readLoop consumes responses from one physical connection until it
// fails, then hands the clientConn to the redial loop.
func (cc *clientConn) readLoop(conn net.Conn) {
	var hdr [headerSize]byte
	for {
		_, id, _, _, _, flags, payload, err := readFrame(conn, &hdr)
		if err != nil {
			cc.lost(conn, fmt.Errorf("transport: connection lost: %w", err))
			return
		}
		cc.client.bytesReceived.Add(int64(headerSize + len(payload)))
		cc.mu.Lock()
		pc, ok := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if !ok {
			continue // response to an abandoned or already-retried call
		}
		if flags&flagBusy != 0 {
			// Admission rejection: pinned strictly under the request's
			// class — every busy frame is the same fixed width, so the
			// client-side auditor proves it too.
			if aud, _ := cc.client.shape(); aud != nil {
				aud.Observe("in", MsgBusy, pc.class, true, len(payload))
			}
			var retryAfter time.Duration
			if len(payload) >= wire.BudgetLen {
				retryAfter = time.Duration(wire.Budget(payload)) * time.Millisecond
			}
			pc.ch <- result{err: &BusyError{RetryAfter: retryAfter}}
			continue
		}
		if aud, _ := cc.client.shape(); aud != nil {
			strict := pc.strictResp && flags&flagError == 0
			aud.Observe("in", pc.msgType, pc.class, strict, len(payload))
		}
		if flags&flagError != 0 {
			pc.ch <- result{err: &RemoteError{Msg: string(payload)}}
		} else {
			pc.ch <- result{payload: payload}
		}
	}
}

// lost marks the connection dead, fails its pending calls fast, and
// starts the background redial loop (unless the client is closing).
func (cc *clientConn) lost(conn net.Conn, err error) {
	conn.Close()
	cc.mu.Lock()
	if cc.conn != conn {
		// A stale read loop racing a completed reconnect; the live
		// connection already replaced this one.
		cc.mu.Unlock()
		return
	}
	cc.dead = err
	for id, pc := range cc.pending {
		pc.ch <- result{err: err}
		delete(cc.pending, id)
	}
	cc.mu.Unlock()
	closed := cc.client.closed.Load()
	if m := cc.client.metrics.Load(); m != nil && !closed {
		m.connFailures.Inc()
	}
	if closed {
		return
	}
	go cc.reconnect()
}

// reconnect redials a lost connection with exponential backoff plus
// jitter until it succeeds or the client closes. While it runs, calls
// round-robin past this connection instead of hanging on it.
func (cc *clientConn) reconnect() {
	backoff := cc.client.opts.reconnectBackoff()
	for {
		if cc.client.closed.Load() {
			return
		}
		nc, err := cc.client.dial()
		if err == nil {
			cc.mu.Lock()
			if cc.client.closed.Load() {
				cc.mu.Unlock()
				nc.Close()
				return
			}
			cc.conn = nc
			cc.dead = nil
			cc.mu.Unlock()
			if m := cc.client.metrics.Load(); m != nil {
				m.reconnects.Inc()
			}
			go cc.readLoop(nc)
			return
		}
		time.Sleep(backoff + rand.N(backoff/2+1))
		if backoff *= 2; backoff > reconnectMaxBackoff {
			backoff = reconnectMaxBackoff
		}
	}
}
