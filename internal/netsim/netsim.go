// Package netsim provides in-memory net.Conn pairs with configurable
// one-way propagation latency and per-connection bandwidth.
//
// It stands in for the paper's AWS/Azure WAN deployment and for the
// Linux `tc` shaping the authors used for TEE-ORTOA (§6). A Link's RTT
// models cross-datacenter propagation (Table 2); its Bandwidth models
// effective per-stream TCP throughput, which is what turns LBL-ORTOA's
// large encryption tables into the measurable communication-overhead
// term `o` of §6.3.2 and the Fig 3b crossover.
package netsim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// A Link describes one bidirectional network path.
type Link struct {
	// RTT is the round-trip propagation delay; each direction delays
	// delivery by RTT/2.
	RTT time.Duration
	// Bandwidth is the per-connection throughput in bytes/second.
	// Zero means unlimited.
	Bandwidth int64
	// Fault, when non-nil, injects connection resets, stalls,
	// blackholed responses, and partition windows into every
	// connection traversing the link (see FaultPlan). The plan is
	// shared by pointer, so one plan governs — and one Stats call
	// accounts for — all of the link's connections.
	Fault *FaultPlan
}

// DefaultBandwidth approximates the effective single-stream TCP
// throughput the paper's r5.xlarge cross-region links sustain
// (~100 Mbit/s). Experiments use it unless overridden.
const DefaultBandwidth = 12 << 20 // 12 MiB/s

// Datacenter links from Table 2: proxy/clients in California, server at
// the named location. Bandwidth set to DefaultBandwidth.
var (
	Loopback = Link{RTT: 0, Bandwidth: 0}
	Oregon   = Link{RTT: 21840 * time.Microsecond, Bandwidth: DefaultBandwidth}
	Virginia = Link{RTT: 62060 * time.Microsecond, Bandwidth: DefaultBandwidth}
	London   = Link{RTT: 147730 * time.Microsecond, Bandwidth: DefaultBandwidth}
	Mumbai   = Link{RTT: 230300 * time.Microsecond, Bandwidth: DefaultBandwidth}
)

// Locations maps Table 2 location names to their links, in the order
// the paper sweeps them (Fig 2a).
var Locations = []struct {
	Name string
	Link Link
}{
	{"Oregon", Oregon},
	{"N.Virginia", Virginia},
	{"London", London},
	{"Mumbai", Mumbai},
}

// OneWay returns the one-direction propagation delay.
func (l Link) OneWay() time.Duration { return l.RTT / 2 }

// TransferTime returns the serialization delay for n bytes.
func (l Link) TransferTime(n int) time.Duration {
	if l.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(l.Bandwidth) * float64(time.Second))
}

// String renders the link for experiment labels.
func (l Link) String() string {
	if l.Bandwidth <= 0 {
		return fmt.Sprintf("rtt=%v bw=inf", l.RTT)
	}
	return fmt.Sprintf("rtt=%v bw=%dMiB/s", l.RTT, l.Bandwidth>>20)
}

// Pipe returns a connected pair of net.Conns joined by link. Data
// written to one end becomes readable at the other after the link's
// serialization plus propagation delay. Closing either end closes both
// directions.
func Pipe(link Link) (net.Conn, net.Conn) {
	ab := newQueue()
	ba := newQueue()
	// The first end is by convention the dialing (client) side and the
	// second the accepting (server) side — Listener.Dial returns them
	// that way — so fault injection can target the response direction.
	a := &conn{link: link, rd: ba, wr: ab, local: addr("netsim-a"), remote: addr("netsim-b")}
	b := &conn{link: link, rd: ab, wr: ba, server: true, local: addr("netsim-b"), remote: addr("netsim-a")}
	return a, b
}

type addr string

func (a addr) Network() string { return "netsim" }
func (a addr) String() string  { return string(a) }

// A chunk is one Write's payload plus the time it becomes deliverable.
type chunk struct {
	deliverAt time.Time
	data      []byte
}

// A queue is one direction of a pipe. Exactly one conn reads from a
// queue, so the reader's deadline lives here: pop re-reads it on every
// wakeup, which is what lets SetReadDeadline interrupt a Read already
// in progress — the net.Conn contract graceful server shutdown relies
// on.
type queue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	chunks    []chunk
	busyUntil time.Time // link serialization horizon
	deadline  time.Time // reader's deadline; zero means none
	closed    bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues one write; stall adds an injected-fault delay on top
// of the link's modeled serialization and propagation time.
func (q *queue) push(link Link, p []byte, stall time.Duration) error {
	data := make([]byte, len(p))
	copy(data, p)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return io.ErrClosedPipe
	}
	now := time.Now()
	start := now
	if q.busyUntil.After(start) {
		start = q.busyUntil
	}
	done := start.Add(link.TransferTime(len(p)))
	q.busyUntil = done
	q.chunks = append(q.chunks, chunk{deliverAt: done.Add(link.OneWay() + stall), data: data})
	q.cond.Broadcast()
	return nil
}

// pop blocks until data is available (and its delivery time has
// passed), the queue is closed, or the reader's deadline expires. The
// deadline is re-read each iteration so a concurrent SetReadDeadline
// takes effect immediately.
func (q *queue) pop(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		deadline := q.deadline
		if len(q.chunks) > 0 {
			head := &q.chunks[0]
			now := time.Now()
			if wait := head.deliverAt.Sub(now); wait > 0 {
				if !deadline.IsZero() && deadline.Before(head.deliverAt) {
					if !deadline.After(now) {
						return 0, os.ErrDeadlineExceeded
					}
					q.sleepLocked(deadline.Sub(now))
					continue
				}
				q.sleepLocked(wait)
				continue
			}
			n := copy(p, head.data)
			if n == len(head.data) {
				q.chunks = q.chunks[1:]
				if len(q.chunks) == 0 {
					q.chunks = nil
				}
			} else {
				head.data = head.data[n:]
			}
			return n, nil
		}
		if q.closed {
			return 0, io.EOF
		}
		if !deadline.IsZero() {
			now := time.Now()
			if !deadline.After(now) {
				return 0, os.ErrDeadlineExceeded
			}
			q.sleepLocked(deadline.Sub(now))
			continue
		}
		q.cond.Wait()
	}
}

// sleepLocked waits for d or until the queue state changes, whichever
// comes first, releasing the lock while asleep.
func (q *queue) sleepLocked(d time.Duration) {
	timer := time.AfterFunc(d, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	q.cond.Wait()
	timer.Stop()
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

type conn struct {
	link   Link
	rd, wr *queue
	server bool // the accepting end; its writes are responses
	local  addr
	remote addr

	mu     sync.Mutex
	closed bool
}

func (c *conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return c.rd.pop(p)
}

func (c *conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return 0, io.ErrClosedPipe
	}
	var stall time.Duration
	if f := c.link.Fault; f != nil {
		verdict, s := f.inject(c.server)
		switch verdict {
		case faultDrop:
			// Report success; the bytes vanish. The peer sees silence,
			// exactly like a response lost in a partition or blackhole.
			return len(p), nil
		case faultReset:
			c.Close()
			return 0, io.ErrClosedPipe
		}
		stall = s
	}
	if err := c.wr.push(c.link, p, stall); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.rd.close()
	c.wr.close()
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	return c.SetReadDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	// Store on the read queue and wake any blocked reader so it
	// re-evaluates the deadline — including a Read already in progress.
	c.rd.mu.Lock()
	c.rd.deadline = t
	c.rd.cond.Broadcast()
	c.rd.mu.Unlock()
	return nil
}

func (c *conn) SetWriteDeadline(time.Time) error {
	// Writes never block in netsim; the deadline is trivially met.
	return nil
}

// A Listener accepts in-memory connections created by its Dial method,
// so a server and many clients can share one simulated network segment.
type Listener struct {
	link    Link
	pending chan net.Conn
	done    chan struct{}
	once    sync.Once
}

// Listen returns a Listener whose connections traverse link.
func Listen(link Link) *Listener {
	return &Listener{
		link:    link,
		pending: make(chan net.Conn, 128),
		done:    make(chan struct{}),
	}
}

// Dial creates a new connection to the listener. It fails during a
// fault plan's partition windows, like a SYN into a partitioned
// network.
func (l *Listener) Dial() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, errors.New("netsim: listener closed")
	default:
	}
	if f := l.link.Fault; f != nil && f.refuseDial() {
		return nil, errors.New("netsim: link partitioned")
	}
	client, server := Pipe(l.link)
	select {
	case l.pending <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, errors.New("netsim: listener closed")
	}
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.pending:
		return c, nil
	case <-l.done:
		return nil, errors.New("netsim: listener closed")
	}
}

// Close stops the listener. Established connections are unaffected.
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return addr("netsim-listener") }
