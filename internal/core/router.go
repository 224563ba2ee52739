package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// Client-side proxy-set routing for multi-proxy deployments. A Router
// fronts N proxies behind the one Accessor interface every workload
// already uses: each access is first offered to the proxy the ring
// places the key's counter range on (ring.go), a dead proxy is detected
// by its transport failures and routed around immediately — any peer can
// serve any key, and its first access to a key it has not served rebases
// from the stale answer — and a background prober re-admits it, with
// bounded exponential backoff, once its listener answers again. Busy
// rejections (admission-control sheds — a definite not-executed outcome)
// are NOT failed over: a peer serving the key would contend with the
// placed proxy for the key's counter, each paying stale laps whenever the
// other moved the record, and under symmetric overload that contention
// would only add work to saturated proxies. The shed is surfaced to the
// caller, who backs off per the retry-after hint; a member that sheds
// consecutively is circuit-broken into a fail-fast bench — accesses
// return busy without a wire round trip — and the first access after the
// bench window is the readmission probe.

// A RouterMember names one proxy and how to reach it.
type RouterMember struct {
	Name string
	Dial func() (net.Conn, error)
}

// RouterOptions tunes a Router. The zero value gets sane defaults.
type RouterOptions struct {
	// Client is the per-member transport configuration (pool size,
	// call timeouts, retry policy).
	Client transport.Options
	// ProbeInterval is the health-prober tick. Default 100ms.
	ProbeInterval time.Duration
	// Metrics, when non-nil, registers the router's metrics
	// (ortoa_router_*) before the health prober starts.
	Metrics *obs.Registry
}

// busyBreaker is the number of consecutive busy rejections from one
// member before the router circuit-breaks it: accesses to the member
// fail fast with busy — no wire round trip — until its retry-after
// window passes, and the first access after the window is the
// readmission probe. The member stays in the routing ring throughout
// (benching is backpressure, not failure — moving its keys to a peer
// would make two proxies contend for their counters).
const busyBreaker = 3

// probeBackoffMax caps the per-member probe backoff that doubles on
// every failed probe.
const probeBackoffMax = 2 * time.Second

// ErrNoProxies reports an access that found no member to try.
var ErrNoProxies = errors.New("core: router has no reachable proxies")

// busyRetryAfter extracts the shedder's retry-after hint from a busy
// rejection. A busy relayed through a proxy hop arrives flattened to a
// RemoteError (the hint does not survive the flattening), so fall back
// to the probe interval — the prober's normal pace.
func busyRetryAfter(err error, fallback time.Duration) time.Duration {
	var be *transport.BusyError
	if errors.As(err, &be) && be.RetryAfter > 0 {
		return be.RetryAfter
	}
	return fallback
}

type routerMember struct {
	name    string
	dial    func() (net.Conn, error)
	healthy atomic.Bool

	mu     sync.Mutex // guards client/acc (re)creation
	client *transport.Client
	acc    *RemoteAccessor

	// busyStreak counts consecutive busy rejections; any other outcome
	// resets it. At busyBreaker the Access path benches the member.
	busyStreak atomic.Int64

	// benchedUntil (unix nanos, 0 = not benched) is the busy breaker's
	// fail-fast window: until it passes, accesses return busy without a
	// wire round trip. Written from the Access path, hence atomic.
	benchedUntil atomic.Int64

	// Probe pacing, owned by the prober — atomics only because Close
	// and tests may race a tick.
	nextProbe atomic.Int64
	backoff   atomic.Int64
}

// accessor returns the member's stub, dialing on first use (or after a
// startup failure). A nil return means the member is unreachable.
func (m *routerMember) accessor(opts transport.Options) *RemoteAccessor {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.acc != nil {
		return m.acc
	}
	c, err := transport.DialOptions(m.dial, opts)
	if err != nil {
		return nil
	}
	m.client = c
	m.acc = NewRemoteAccessor(c)
	return m.acc
}

// A Router implements Accessor over a set of proxies. Safe for
// concurrent use.
type Router struct {
	members []*routerMember
	opts    RouterOptions
	ring    atomic.Pointer[Ring]

	stop chan struct{}
	wg   sync.WaitGroup
	mx   routerObs
}

// routerObs is the Router's metric bundle (nil-safe handles).
type routerObs struct {
	failovers *obs.Counter // accesses moved off a failed member
	busies    *obs.Counter // busy rejections routed around
	trips     *obs.Counter // busy-breaker trips (member benched until probed)
	probes    *obs.Counter // health probes sent
	healthy   *obs.Gauge   // members currently routable
}

// instrument registers the router's metrics. Called from NewRouter
// before the prober goroutine starts — the bundle is written without
// synchronization, so it must not change once the router is live.
func (r *Router) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.mx = routerObs{
		failovers: reg.Counter("ortoa_router_failovers_total", "accesses moved off a member after a transport failure"),
		busies:    reg.Counter("ortoa_router_busy_total", "busy rejections (shed before executing) surfaced for caller backoff"),
		trips:     reg.Counter("ortoa_router_breaker_trips_total", "members benched behind fail-fast busies after consecutive sheds"),
		probes:    reg.Counter("ortoa_router_probes_total", "health probes sent to unhealthy members"),
		healthy:   reg.Gauge("ortoa_router_healthy_members", "members currently considered routable"),
	}
}

// NewRouter connects to the given proxies and starts the health
// prober. Members that fail their initial dial start unhealthy and are
// picked up by the prober; only an empty member list is an error.
func NewRouter(members []RouterMember, opts RouterOptions) (*Router, error) {
	if len(members) == 0 {
		return nil, errors.New("core: router needs at least one member")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 100 * time.Millisecond
	}
	r := &Router{opts: opts, stop: make(chan struct{})}
	r.instrument(opts.Metrics)
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Name == "" || m.Dial == nil {
			return nil, fmt.Errorf("core: router member %q needs a name and a dial function", m.Name)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("core: duplicate router member %q", m.Name)
		}
		seen[m.Name] = true
		rm := &routerMember{name: m.Name, dial: m.Dial}
		rm.backoff.Store(int64(opts.ProbeInterval))
		rm.healthy.Store(rm.accessor(opts.Client) != nil)
		r.members = append(r.members, rm)
	}
	r.rebuildRing()
	r.wg.Add(1)
	go r.probeLoop()
	return r, nil
}

// Close stops the prober and closes every member connection.
func (r *Router) Close() error {
	close(r.stop)
	r.wg.Wait()
	for _, m := range r.members {
		m.mu.Lock()
		if m.client != nil {
			m.client.Close()
		}
		m.mu.Unlock()
	}
	return nil
}

// Ring returns the current routing ring (healthy members only).
func (r *Router) Ring() *Ring { return r.ring.Load() }

func (r *Router) healthyCount() int {
	n := 0
	for _, m := range r.members {
		if m.healthy.Load() {
			n++
		}
	}
	return n
}

// rebuildRing re-resolves range placement over the currently healthy
// member set (all members if none are healthy, so routing still has
// candidates while everything is down).
func (r *Router) rebuildRing() {
	var names []string
	for _, m := range r.members {
		if m.healthy.Load() {
			names = append(names, m.name)
		}
	}
	if len(names) == 0 {
		for _, m := range r.members {
			names = append(names, m.name)
		}
	}
	r.ring.Store(NewRing(names))
	r.mx.healthy.Set(int64(r.healthyCount()))
}

// markDown records a member transport failure: the member leaves the
// routing ring until a probe readmits it.
func (r *Router) markDown(m *routerMember) {
	if m.healthy.CompareAndSwap(true, false) {
		r.rebuildRing()
	}
}

// pick returns the next member to try for key: the ring's placement
// first, then the remaining healthy members, then — last resort —
// unhealthy ones (they may have just recovered); nil once every member
// has been tried. tried is consulted and updated.
func (r *Router) pick(key string, tried map[*routerMember]bool) *routerMember {
	owner := r.ring.Load().OwnerOfKey(key)
	var healthyUntried, anyUntried *routerMember
	for _, m := range r.members {
		if tried[m] {
			continue
		}
		if m.name == owner && m.healthy.Load() {
			tried[m] = true
			return m
		}
		if healthyUntried == nil && m.healthy.Load() {
			healthyUntried = m
		}
		if anyUntried == nil {
			anyUntried = m
		}
	}
	next := healthyUntried
	if next == nil {
		next = anyUntried
	}
	if next != nil {
		tried[next] = true
	}
	return next
}

// AccessContext implements Accessor: route to the key's placed member
// under ctx, failing over on dead members, each member tried at most
// once.
func (r *Router) AccessContext(ctx context.Context, op Op, key string, newValue []byte) ([]byte, error) {
	var lastErr, ambigErr error
	tried := make(map[*routerMember]bool, 2)
	for m := r.pick(key, tried); m != nil; m = r.pick(key, tried) {
		if until := m.benchedUntil.Load(); until != 0 {
			if wait := time.Until(time.Unix(0, until)); wait > 0 {
				// Benched by the busy breaker: fail fast with the
				// shedder's outcome instead of offering more load (or
				// letting a peer contend for the key's counter).
				err := &transport.BusyError{RetryAfter: wait}
				if ambigErr != nil {
					return nil, ambigErr
				}
				return nil, err
			}
			// Window passed; this access is the readmission probe.
			m.benchedUntil.Store(0)
		}
		acc := m.accessor(r.opts.Client)
		if acc == nil {
			r.markDown(m)
			lastErr = ErrNoProxies
			continue
		}
		value, err := acc.AccessContext(ctx, op, key, newValue)
		if err == nil {
			m.busyStreak.Store(0)
			if !m.healthy.Load() {
				// It answered; readmit it without waiting for a probe.
				if m.healthy.CompareAndSwap(false, true) {
					r.rebuildRing()
				}
			}
			return value, nil
		}
		lastErr = err
		var re *transport.RemoteError
		isRemote := errors.As(err, &re)
		if !transport.IsBusy(err) {
			// Only *consecutive* busy rejections trip the breaker.
			m.busyStreak.Store(0)
		}
		switch {
		case transport.IsBusy(err):
			// The member (or its upstream server) shed the access before
			// executing it — a definite outcome, not an ambiguity. Do NOT
			// fail over: a peer serving this key contends with the
			// member for its counter, and each pays stale laps whenever
			// the other moved the record — under symmetric overload, work
			// added to saturated proxies. Surface the shed so the caller
			// backs off; consecutive sheds bench the member behind
			// fail-fast busies until its retry-after window passes.
			r.mx.busies.Inc()
			if m.busyStreak.Add(1) >= busyBreaker {
				m.busyStreak.Store(0)
				m.benchedUntil.Store(time.Now().Add(busyRetryAfter(err, r.opts.ProbeInterval)).UnixNano())
				r.mx.trips.Inc()
			}
			if ambigErr != nil {
				return nil, ambigErr
			}
			return nil, err
		case isRemote && !transport.Ambiguous(err):
			// A definite application-level error is the access's real
			// outcome (unknown key, bad value, stale past the member's
			// recovery allowance): failing over cannot change it. An
			// earlier member's unknown outcome still wins — that round
			// may have applied, so the access's outcome is unknown.
			if ambigErr != nil {
				return nil, ambigErr
			}
			return nil, err
		case isRemote:
			// The member is alive but its own server round's outcome is
			// unknown (AmbiguousMsgPrefix). Retrying on a peer is safe —
			// the at-most-once replay and the record's verifier, which
			// lets at most one round per counter value install, make a
			// duplicate application impossible — and the member stays in
			// the ring.
			r.mx.failovers.Inc()
			ambigErr = err
		default:
			// Transport failure reaching the member — including
			// ambiguous ones, safe to retry for the same reason.
			r.mx.failovers.Inc()
			r.markDown(m)
			if transport.Ambiguous(err) {
				ambigErr = err
			}
		}
	}
	// If any attempt left its outcome unknown, the access's overall
	// outcome is unknown no matter what a later member answered —
	// surface the ambiguity, not a definite-looking rejection.
	if ambigErr != nil {
		return nil, ambigErr
	}
	if lastErr == nil {
		lastErr = ErrNoProxies
	}
	return nil, lastErr
}

// probeLoop periodically probes unhealthy members' listeners and
// readmits the ones that answer, with per-member exponential backoff so
// a dead proxy is not hammered.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			for _, m := range r.members {
				if m.healthy.Load() || now.UnixNano() < m.nextProbe.Load() {
					continue
				}
				r.mx.probes.Inc()
				if conn, err := m.dial(); err == nil {
					conn.Close()
					m.backoff.Store(int64(r.opts.ProbeInterval))
					m.nextProbe.Store(0)
					if m.healthy.CompareAndSwap(false, true) {
						r.rebuildRing()
					}
				} else {
					b := min(2*time.Duration(m.backoff.Load()), probeBackoffMax)
					m.backoff.Store(int64(b))
					m.nextProbe.Store(now.Add(b).UnixNano())
				}
			}
		}
	}
}
