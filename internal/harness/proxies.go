package harness

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/netsim"
	"ortoa/internal/tier"
)

// Multi-proxy high-availability deployments (LBL only). With
// Config.Proxies > 0 the cluster runs N trusted proxies sharing one PRF
// secret against a single LBL server. Clients reach the deployment
// through a core.Router that places keys on the proxies by the
// consistent-hash ring (core/ring.go), health-checks them and fails over
// between them; the records' verifiers decide between proxies serving one
// key. KillProxy / RecoverProxy / RestartProxy crash-kill and rebuild
// individual proxies behind stable listener identities, so experiments
// can move keys between live proxies.

// A proxyNode is one restartable trusted proxy: its own trusted tier —
// connection pool to the shard server and LBL proxy state — and the
// front end clients reach through a stable listener pointer.
type proxyNode struct {
	name string

	// listener is swapped on recovery; the router's dial closure reads
	// it, so a reborn proxy is reachable at the same identity.
	listener atomic.Pointer[netsim.Listener]

	mu    sync.Mutex // guards the restartable fields below
	px    *tier.Proxy
	front *tier.Front
	down  bool
}

// buildProxies stands up the proxy fleet and router over the already
// built shard. Called before load(), which then builds records through
// the shared-PRF proxy at c.proxies[0].
func (c *Cluster) buildProxies() error {
	cfg := c.cfg
	c.prf = prf.NewRandom()
	names := make([]string, cfg.Proxies)
	for i := range names {
		names[i] = fmt.Sprintf("proxy-%d", i)
	}
	for _, name := range names {
		pn := &proxyNode{name: name}
		if err := c.startProxy(pn); err != nil {
			return fmt.Errorf("harness: starting %s: %w", name, err)
		}
		c.proxies = append(c.proxies, pn)
	}

	members := make([]core.RouterMember, len(c.proxies))
	for i, pn := range c.proxies {
		pn := pn
		members[i] = core.RouterMember{
			Name: pn.name,
			Dial: func() (net.Conn, error) { return pn.listener.Load().Dial() },
		}
	}
	ropts := cfg.Transport // end users run the fleet's fault-tolerance policy
	ropts.PoolSize = 4
	router, err := core.NewRouter(members, core.RouterOptions{
		Client:        ropts,
		ProbeInterval: 25 * time.Millisecond,
		Metrics:       cfg.Metrics,
	})
	if err != nil {
		return err
	}
	c.router = router
	return nil
}

// startProxy builds (or rebuilds) the node's trusted tier and front
// end. A rebuilt node starts with empty counters: each key's first
// access is answered stale and rebases, exactly like a production proxy
// restarted from nothing.
func (c *Cluster) startProxy(pn *proxyNode) error {
	px, err := tier.NewProxy(c.proxyConfig(c.prf), c.shards[0].dial)
	if err != nil {
		return err
	}
	var fcfg tier.FrontConfig
	if c.cfg.Admission != nil {
		fcfg.Admission = *c.cfg.Admission
	}
	front, err := px.NewFront(fcfg)
	if err != nil {
		px.Close() //nolint:errcheck // reporting the front-end error
		return err
	}
	l := netsim.Listen(c.cfg.ProxyLink)
	go front.Transport.Serve(l) //nolint:errcheck // returns on Close

	pn.px, pn.front = px, front
	pn.down = false
	pn.listener.Store(l)
	return nil
}

// proxyNodeAt validates i against the proxy fleet.
func (c *Cluster) proxyNodeAt(i int) (*proxyNode, error) {
	if len(c.proxies) == 0 {
		return nil, fmt.Errorf("harness: cluster has no proxy fleet (Config.Proxies unset)")
	}
	if i < 0 || i >= len(c.proxies) {
		return nil, fmt.Errorf("harness: no proxy %d", i)
	}
	return c.proxies[i], nil
}

// KillProxy crash-kills proxy i: its server connections drop, its
// front end closes (in-flight client rounds fail over at the router),
// and its listener stops answering — counters and all.
// The proxy stays dead until RecoverProxy.
func (c *Cluster) KillProxy(i int) error {
	pn, err := c.proxyNodeAt(i)
	if err != nil {
		return err
	}
	pn.mu.Lock()
	defer pn.mu.Unlock()
	if pn.down {
		return fmt.Errorf("harness: proxy %d already down", i)
	}
	// Server pool first: in-flight accesses inside front-end handlers
	// fail fast instead of gracefully draining — this is a crash, not a
	// shutdown.
	pn.px.RPC.Close() //nolint:errcheck // best-effort kill
	pn.px.Close()     //nolint:errcheck
	pn.down = true
	return nil
}

// RecoverProxy rebuilds a killed proxy behind its stable listener
// identity, with empty counters: like any restarted proxy it rebases
// each counter from its key's first stale answer.
func (c *Cluster) RecoverProxy(i int) error {
	pn, err := c.proxyNodeAt(i)
	if err != nil {
		return err
	}
	pn.mu.Lock()
	defer pn.mu.Unlock()
	if !pn.down {
		return fmt.Errorf("harness: proxy %d is not down", i)
	}
	return c.startProxy(pn)
}

// RestartProxy crash-kills proxy i and immediately recovers it — the
// proxy-side analogue of Cluster.Restart for shard servers.
func (c *Cluster) RestartProxy(i int) error {
	if err := c.KillProxy(i); err != nil {
		return err
	}
	return c.RecoverProxy(i)
}

// Proxies returns the proxy fleet size (0 for single-proxy clusters).
func (c *Cluster) Proxies() int { return len(c.proxies) }

// Router returns the client-side proxy router (nil for single-proxy
// clusters).
func (c *Cluster) Router() *core.Router { return c.router }

// closeProxies tears down the router and every proxy node.
func (c *Cluster) closeProxies() {
	if c.router != nil {
		c.router.Close() //nolint:errcheck
	}
	for _, pn := range c.proxies {
		pn.mu.Lock()
		pn.px.Close() //nolint:errcheck // idempotent: a killed node is already closed
		pn.down = true
		pn.mu.Unlock()
	}
}
