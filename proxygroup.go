package ortoa

import (
	"context"
	"errors"
	"net"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// A ProxyGroupMember names one proxy of a multi-proxy deployment and
// how to reach it. The group places keys on a consistent-hash ring over
// the member names, so names only need to agree across the clients of
// one deployment: then one key queues at one proxy, which folds its
// concurrent accesses into one per round, instead of two proxies
// contending for its counter.
type ProxyGroupMember struct {
	Name string
	Dial func() (net.Conn, error)
}

// ProxyGroupOptions tunes a ProxyGroup; the zero value gets sane
// defaults (2 connections per member, no deadline).
//
// Each request is one attempt at one member: failover to other members
// happens per access. Down members are probed every 100ms, backing off
// exponentially per member. Three consecutive busy rejections (IsBusy)
// from one member circuit-break it: accesses to that member fail fast
// with IsBusy — no wire round trip — until its retry-after window
// passes, so a saturated proxy drains instead of being hammered. Busy
// rejections never fail over to a peer (the peer would contend for the
// key's counter, adding stale laps to an overloaded fleet); callers
// back off and retry.
type ProxyGroupOptions struct {
	// Conns sizes the connection pool to each member (default 2).
	Conns int
	// CallTimeout bounds each request attempt to one proxy; zero means
	// no deadline. Set it in failover deployments — it is what turns a
	// silently dead proxy into a prompt failover instead of a hang.
	CallTimeout time.Duration
	// Metrics, when non-nil, registers the group's routing metrics
	// (ortoa_router_*: failovers, busy rejections, breaker trips, probes,
	// healthy members).
	Metrics *obs.Registry
}

// A ProxyGroup is an end-user handle over several trusted proxies with
// live failover: each access is first offered to the proxy the key's
// counter range is placed on, and a dead member is routed around
// immediately — any peer serves any key — and re-admitted by background
// probes once it answers again. It holds no secrets and is safe for
// concurrent use.
//
// Error contract: an access that fails definitively on every reachable
// member returns that error; an access whose outcome is unknown on any
// member (connection died mid-round) returns an error for which
// Ambiguous reports true — the write may or may not have applied.
type ProxyGroup struct {
	router *core.Router
}

// DialProxyGroup connects to a set of proxies with client-side
// failover. Members that are down at dial time start unhealthy and are
// picked up by the prober; only an empty member list is an error.
func DialProxyGroup(members []ProxyGroupMember, opts ProxyGroupOptions) (*ProxyGroup, error) {
	conns := opts.Conns
	if conns <= 0 {
		conns = 2
	}
	rms := make([]core.RouterMember, len(members))
	for i, m := range members {
		rms[i] = core.RouterMember{Name: m.Name, Dial: m.Dial}
	}
	router, err := core.NewRouter(rms, core.RouterOptions{
		Client:  transport.Options{PoolSize: conns, CallTimeout: opts.CallTimeout},
		Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return &ProxyGroup{router: router}, nil
}

// Read fetches the value stored under key via the key's placed proxy,
// failing over to peers as needed.
func (g *ProxyGroup) Read(key string) ([]byte, error) {
	return g.router.AccessContext(context.Background(), core.OpRead, key, nil)
}

// Write replaces the value stored under key via the key's placed
// proxy, failing over to peers as needed. The value must already match
// the store's fixed size (the proxy rejects mismatches). On an
// Ambiguous error the write may or may not have applied; rewriting the
// same value is always safe.
func (g *ProxyGroup) Write(key string, value []byte) error {
	_, err := g.router.AccessContext(context.Background(), core.OpWrite, key, value)
	return err
}

// Ambiguous reports whether err left an access's outcome unknown (the
// connection died after the request may have reached a proxy). Definite
// rejections — unknown key, size mismatch, every-member-down — report
// false: those accesses did not happen.
func Ambiguous(err error) bool {
	// Every member unreachable means no request was ever sent; the
	// transport layer's conservative default would call this unknown,
	// but the router knows the access definitely did not execute. (When
	// any attempt's outcome was unknown, the router surfaces that
	// attempt's error instead of ErrNoProxies.)
	if errors.Is(err, core.ErrNoProxies) {
		return false
	}
	return transport.Ambiguous(err)
}

// IsBusy reports whether err is an overload rejection: the access was
// shed by admission control — on a proxy front end or on the storage
// server behind it — before executing. Busy is a definite outcome
// (Ambiguous reports false for it): nothing happened, and the caller
// should back off before retrying, ideally by the BusyError's
// RetryAfter hint. A ProxyGroup does not fail busy accesses over to
// peers (see ProxyGroupOptions); backing off and retrying
// the same call is the intended response.
func IsBusy(err error) bool { return transport.IsBusy(err) }

// Close stops the health prober and releases every member connection.
func (g *ProxyGroup) Close() error { return g.router.Close() }
