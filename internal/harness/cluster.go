// Package harness deploys in-process ORTOA clusters over simulated WAN
// links and runs the paper's experiments (§6). Each figure/table of
// the evaluation has a runner that produces the same rows/series the
// paper reports; cmd/ortoa-bench and the repository-root benchmarks
// drive them.
package harness

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crashfs"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/tier"
	"ortoa/internal/transport"
)

// System identifies a protocol under test.
type System string

// Systems of the evaluation.
const (
	SystemLBL      System = "LBL-ORTOA"
	SystemTEE      System = "TEE-ORTOA"
	SystemBaseline System = "2RTT"
)

// Config describes one cluster deployment.
type Config struct {
	// System selects the protocol.
	System System
	// Link is the proxy↔server network path (clients are colocated
	// with the proxy, as in the paper's California placement).
	Link netsim.Link
	// ValueSize is the fixed value length in bytes (paper default
	// 160 B).
	ValueSize int
	// Data is the initial database. Every key in it is accessible.
	Data map[string][]byte
	// Shards is the number of proxy/server pairs (Fig 3a); keys are
	// hash-partitioned across them. Zero means 1.
	Shards int
	// LBLMode selects the LBL variant, passed to the proxies as is: the
	// zero value is core.LBLBasic (y = 1, trial decryption). Experiments
	// that stand for the paper's cost analysis set core.LBLPointPermute.
	LBLMode core.LBLMode
	// EnclaveTransition is the simulated ecall overhead for TEE.
	EnclaveTransition time.Duration
	// ConnsPerShard sizes the proxy→server connection pool. Zero
	// means one per expected concurrent client (set by Run).
	ConnsPerShard int
	// Transport tunes the proxy→server clients' fault tolerance
	// (per-call deadlines, at-most-once retries, reconnect backoff).
	// PoolSize is ignored — ConnsPerShard wins. The zero value keeps
	// the historical behavior: no deadline, no retries.
	Transport transport.Options
	// Metrics, when non-nil, instruments every shard's store,
	// transport, and protocol sides against one shared registry (series
	// aggregate across shards), first and on every restart. The
	// value-size sweep reads LBL's latency breakdown from it. Metrics
	// also arms the obliviousness shape auditors on both sides of every
	// shard's link.
	Metrics *obs.Registry
	// TraceBuffer, when positive, turns on distributed tracing
	// (requires Metrics): proxies and servers retain up to this many
	// finished spans each, and span context crosses the simulated WAN
	// in the frame headers' fixed-size trace field.
	TraceBuffer int
	// Durability, when non-nil, backs every shard store with a
	// crash-faulty filesystem and a WAL under the given fsync policy,
	// enabling Restart (kill-without-flush + recovery). LBL only.
	Durability *DurabilityConfig
	// Proxies, when positive, deploys that many trusted proxies sharing
	// one PRF secret over a single LBL shard, keys placed on them by a
	// consistent-hash ring; Cluster.Access then routes
	// through a health-probing core.Router, and KillProxy /
	// RecoverProxy drive live failover. Requires
	// System == SystemLBL and Shards <= 1.
	Proxies int
	// StreamChunkBytes, when positive, puts every LBL proxy on the
	// chunked-streaming request path (core.LBLConfig.StreamChunkBytes):
	// access tables cross the WAN in sealed chunks of about this many
	// bytes as they are built, overlapping garbling with transmission.
	StreamChunkBytes int
	// Admission, when non-nil, installs deadline-aware admission
	// control on every shard server and (in multi-proxy deployments)
	// every proxy front end: bounded concurrency, LIFO queueing under
	// saturation, constant-size busy rejections. The overload
	// experiment drives a cluster configured this way far past
	// capacity.
	Admission *transport.AdmissionConfig
}

// DurabilityConfig makes shard stores durable and crashable. Each
// shard gets its own crashfs disk seeded with Seed+shard so runs are
// reproducible.
type DurabilityConfig struct {
	// Policy is the WAL fsync policy (kvstore.SyncNever /
	// SyncInterval / SyncGroupCommit). The stores checkpoint on their
	// own as their logs grow.
	Policy kvstore.SyncPolicy
	// Seed seeds the per-shard fault PRNGs.
	Seed uint64
	// TornWriteProb is the probability a crash tears the first
	// dropped write mid-buffer.
	TornWriteProb float64
}

// A Cluster is a running deployment: servers, proxies, and the routing
// needed to access any key.
type Cluster struct {
	cfg    Config
	shards []*shard
	// placement maps each counter range to the shard holding its keys.
	placement [core.NumRanges]int

	// Multi-proxy deployments only (Config.Proxies > 0, proxies.go).
	prf     *prf.PRF // shared proxy secret — all peers derive identical labels
	proxies []*proxyNode
	router  *core.Router
}

// A shard is one server tier behind a stable dial identity, plus — in
// single-proxy deployments — the trusted tier in front of it.
type shard struct {
	// px is nil in multi-proxy deployments, where the fleet's proxies
	// share the one shard.
	px *tier.Proxy

	// listener is swapped on Restart; dial reads it, so reconnects find
	// the reborn server.
	listener atomic.Pointer[netsim.Listener]
	link     netsim.Link
	// scfg is what the server tier is built from, first and on every
	// Restart.
	scfg tier.ServerConfig

	mu       sync.Mutex // guards the restartable fields below
	srv      *tier.Server
	replayed int64 // WAL records replayed by servers since retired

	fsys *crashfs.FS // durable shards only
}

// systemProtocol names each evaluated system's tier protocol.
var systemProtocol = map[System]tier.Protocol{
	SystemLBL:      tier.LBL,
	SystemTEE:      tier.TEE,
	SystemBaseline: tier.Baseline,
}

// NewCluster builds, loads, and connects a deployment.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.ConnsPerShard <= 0 {
		cfg.ConnsPerShard = 32
	}
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("harness: ValueSize must be positive")
	}
	if _, ok := systemProtocol[cfg.System]; !ok {
		return nil, fmt.Errorf("harness: unknown system %q", cfg.System)
	}
	if cfg.Durability != nil && cfg.System != SystemLBL {
		return nil, fmt.Errorf("harness: Durability requires %s (got %s)", SystemLBL, cfg.System)
	}
	if cfg.Proxies > 0 {
		if cfg.System != SystemLBL {
			return nil, fmt.Errorf("harness: Proxies requires %s (got %s)", SystemLBL, cfg.System)
		}
		if cfg.Shards > 1 {
			return nil, fmt.Errorf("harness: Proxies requires a single shard (got %d)", cfg.Shards)
		}
	}
	c := &Cluster{cfg: cfg, placement: core.RangePlacement(cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := c.newShard(i)
		if sh != nil {
			c.shards = append(c.shards, sh)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	if cfg.Proxies > 0 {
		if err := c.buildProxies(); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.load(cfg.Data); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// newShard starts shard idx's server tier and, unless a proxy fleet
// will front it, its trusted tier. A partly built shard is returned
// with the error so Close can release it.
func (c *Cluster) newShard(idx int) (*shard, error) {
	cfg := c.cfg
	sh := &shard{link: cfg.Link, scfg: tier.ServerConfig{
		Protocol:          systemProtocol[cfg.System],
		ValueSize:         cfg.ValueSize,
		EnclaveTransition: cfg.EnclaveTransition,
		Metrics:           cfg.Metrics,
		TraceBuffer:       cfg.TraceBuffer,
	}}
	if cfg.Admission != nil {
		sh.scfg.Admission = *cfg.Admission
	}
	if d := cfg.Durability; d != nil {
		sh.fsys = crashfs.New(&crashfs.Plan{Seed: d.Seed + uint64(idx), TornWriteProb: d.TornWriteProb})
		sh.scfg.StateDir = "state"
		sh.scfg.Durability = kvstore.WALOptions{Policy: d.Policy, FS: sh.fsys}
	}
	if err := sh.serve(); err != nil {
		return nil, err
	}
	if cfg.Proxies > 0 {
		return sh, nil
	}
	px, err := tier.NewProxy(c.proxyConfig(prf.NewRandom()), sh.dial)
	if err != nil {
		return sh, err
	}
	sh.px = px
	if px.TEE != nil {
		if err := px.TEE.AttestAndProvision(sh.srv.TEE.Enclave()); err != nil {
			return sh, err
		}
	}
	return sh, nil
}

// proxyConfig is the trusted tier every proxy of the cluster is built
// from, keyed with f.
func (c *Cluster) proxyConfig(f *prf.PRF) tier.ProxyConfig {
	topts := c.cfg.Transport
	topts.PoolSize = c.cfg.ConnsPerShard
	return tier.ProxyConfig{
		Protocol:    systemProtocol[c.cfg.System],
		ValueSize:   c.cfg.ValueSize,
		PRF:         f,
		DataKey:     secretbox.NewRandomKey(),
		LBL:         core.LBLConfig{Mode: c.cfg.LBLMode, StreamChunkBytes: c.cfg.StreamChunkBytes},
		Transport:   topts,
		Metrics:     c.cfg.Metrics,
		TraceBuffer: c.cfg.TraceBuffer,
	}
}

// serve builds the shard's server tier from scfg — recovering the
// store first on a durable shard — and serves it on a fresh listener.
func (sh *shard) serve() error {
	srv, err := tier.NewServer(sh.scfg)
	if err != nil {
		return err
	}
	listener := netsim.Listen(sh.link)
	go srv.Transport.Serve(listener) //nolint:errcheck // returns on Close
	sh.srv = srv
	sh.listener.Store(listener)
	return nil
}

// dial reaches whichever server currently serves the shard.
func (sh *shard) dial() (net.Conn, error) { return sh.listener.Load().Dial() }

// Restart crash-kills shard i's server — no flush, open handles die,
// unsynced disk state resolves per the crash plan — then recovers a
// replacement from the surviving WAL + snapshot and points the proxy's
// connection pool at it. In-flight calls fail ambiguously, and their
// keys rebase on their next access; acknowledged writes survive per the
// fsync policy's contract. Requires Config.Durability.
func (c *Cluster) Restart(i int) error {
	sh, err := c.durableShard(i)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.srv.Close() //nolint:errcheck // best-effort kill
	sh.fsys.Crash()
	sh.replayed += sh.srv.Store.WALReplayed() // retire the dead store's count
	if err := sh.serve(); err != nil {
		return fmt.Errorf("harness: recovering shard %d: %w", i, err)
	}
	return nil
}

// durableShard validates i against the shards and Config.Durability.
func (c *Cluster) durableShard(i int) (*shard, error) {
	if i < 0 || i >= len(c.shards) {
		return nil, fmt.Errorf("harness: no shard %d", i)
	}
	if c.shards[i].fsys == nil {
		return nil, fmt.Errorf("harness: shard %d is not durable (Config.Durability unset)", i)
	}
	return c.shards[i], nil
}

// WALReplayedTotal sums WAL records replayed during recoveries across
// all shards and restarts.
func (c *Cluster) WALReplayedTotal() int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.replayed + sh.srv.Store.WALReplayed()
		sh.mu.Unlock()
	}
	return n
}

// DiskStats aggregates crash-fault statistics across the shards'
// simulated disks (zero value for non-durable clusters).
func (c *Cluster) DiskStats() crashfs.Stats {
	var total crashfs.Stats
	for _, sh := range c.shards {
		if sh.fsys == nil {
			continue
		}
		st := sh.fsys.Stats()
		total.WriteErrs += st.WriteErrs
		total.SyncErrs += st.SyncErrs
		total.Crashes += st.Crashes
		total.TornWrites += st.TornWrites
		total.DroppedWrites += st.DroppedWrites
		total.DroppedOps += st.DroppedOps
	}
	return total
}

// Checkpoint forces shard i's store to checkpoint now — durable
// snapshot plus WAL rotation — giving crash tests a known durable
// baseline. Requires Config.Durability.
func (c *Cluster) Checkpoint(i int) error {
	sh, err := c.durableShard(i)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	store := sh.srv.Store
	sh.mu.Unlock()
	return store.Checkpoint()
}

// Generations returns each shard's committed checkpoint generation.
func (c *Cluster) Generations() []uint64 {
	gens := make([]uint64, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.Lock()
		gens[i] = sh.srv.Store.Generation()
		sh.mu.Unlock()
	}
	return gens
}

// load encodes and installs the initial database, building records in
// parallel (record building is PRF/AES-heavy for LBL).
func (c *Cluster) load(data map[string][]byte) error {
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	return core.ForEach(len(keys), runtime.GOMAXPROCS(0), func(i int) error {
		sh := c.shardFor(keys[i])
		builder := sh.px
		if builder == nil {
			// A fleet shares one PRF: any member encodes the records
			// every member can read.
			builder = c.proxies[0].px
		}
		ek, rec, err := builder.BuildRecord(keys[i], data[keys[i]])
		if err != nil {
			return fmt.Errorf("harness: building record for %q: %w", keys[i], err)
		}
		if err := sh.srv.Store.Put(ek, rec); err != nil {
			return fmt.Errorf("harness: loading %q: %w", keys[i], err)
		}
		return nil
	})
}

// shardFor places key by its counter range, the unit proxy ownership
// and the public ShardedClient partition by too.
func (c *Cluster) shardFor(key string) *shard {
	return c.shards[c.placement[core.RangeOf(key)]]
}

// Access routes one operation, under no deadline, to the owning shard
// — or, in a multi-proxy deployment, through the failover router to the
// proxy owning the key's counter range.
func (c *Cluster) Access(op core.Op, key string, value []byte) ([]byte, error) {
	if c.router != nil {
		return c.router.AccessContext(context.Background(), op, key, value)
	}
	return c.shardFor(key).px.Accessor.AccessContext(context.Background(), op, key, value)
}

// AdmissionStats sums admission-control counters across shard servers
// and live proxy front ends (zero value when Config.Admission is
// unset).
func (c *Cluster) AdmissionStats() transport.AdmissionStats {
	var total transport.AdmissionStats
	add := func(st transport.AdmissionStats) {
		total.QueueDepth += st.QueueDepth
		total.Shed += st.Shed
		total.Expired += st.Expired
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		add(sh.srv.Transport.AdmissionStats())
		sh.mu.Unlock()
	}
	for _, pn := range c.proxies {
		pn.mu.Lock()
		if !pn.down {
			add(pn.front.Transport.AdmissionStats())
		}
		pn.mu.Unlock()
	}
	return total
}

// ServerBytes returns total server-side storage, for §5.3.1 reporting.
func (c *Cluster) ServerBytes() int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.srv.Store.Bytes()
		sh.mu.Unlock()
	}
	return n
}

// Shards returns the number of proxy/server pairs.
func (c *Cluster) Shards() int { return len(c.shards) }

// Close tears down all connections and servers.
func (c *Cluster) Close() {
	c.closeProxies()
	for _, sh := range c.shards {
		if sh.px != nil {
			sh.px.Close() //nolint:errcheck // best-effort teardown
		}
		sh.mu.Lock()
		sh.srv.Close()           //nolint:errcheck
		sh.srv.Store.DetachWAL() //nolint:errcheck // best-effort flush
		sh.mu.Unlock()
	}
}
