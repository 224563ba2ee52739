package ortoa

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/fhe"
	"ortoa/internal/kvstore"
	"ortoa/internal/obs"
	"ortoa/internal/tier"
	"ortoa/internal/transport"
	"ortoa/internal/vfs"
)

// Protocol selects an ORTOA variant.
type Protocol string

// Protocols.
const (
	// ProtocolLBL is the label-based protocol (§5), the paper's main
	// contribution. Default.
	ProtocolLBL Protocol = "lbl"
	// ProtocolTEE runs the selector in a simulated enclave (§4).
	ProtocolTEE Protocol = "tee"
	// ProtocolFHE evaluates the selector homomorphically (§3).
	// Impractical beyond a handful of accesses per object, as the
	// paper reports; see the fhe-noise experiment.
	ProtocolFHE Protocol = "fhe"
	// ProtocolBaseline2RTT is the two-round read-then-write baseline.
	ProtocolBaseline2RTT Protocol = "2rtt"
)

// LBLVariant selects the label-protocol optimization level by the name
// of its row in the core's mode table.
type LBLVariant string

// LBL variants (§5.2, §10).
const (
	// LBLPointPermute is y=2 with point-and-permute — the default and
	// the configuration of the paper's cost analysis.
	LBLPointPermute LBLVariant = "point-permute"
	// LBLSpaceOpt is y=2 without point-and-permute: the server
	// trial-decrypts up to four tagged entries a group.
	LBLSpaceOpt LBLVariant = "space-opt"
	// LBLBasic is the unoptimized one-label-per-bit protocol.
	LBLBasic LBLVariant = "basic"
)

// FsyncPolicy names a WAL durability policy: when journaled mutations
// reach stable storage (DESIGN.md §10).
type FsyncPolicy string

// Fsync policies.
const (
	// FsyncNever fsyncs only at SyncWAL and at checkpoints, which the
	// store takes on its own as its log grows: acknowledged writes
	// survive process death, and a machine crash rolls back to the
	// last of those.
	FsyncNever FsyncPolicy = "never"
	// FsyncInterval fsyncs on a background cadence; a crash loses at
	// most one interval of acknowledged writes. Default.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncGroupCommit acknowledges a mutation only after its record
	// is fsynced; concurrent writers share one fsync (durable-on-ack).
	FsyncGroupCommit FsyncPolicy = "group-commit"
)

func (p FsyncPolicy) policy() (kvstore.SyncPolicy, error) {
	if p == "" {
		return kvstore.SyncInterval, nil
	}
	return kvstore.ParseSyncPolicy(string(p))
}

// mode returns the core mode named v; the empty variant is
// point-and-permute.
func (v LBLVariant) mode() (core.LBLMode, error) {
	if v == "" {
		v = LBLPointPermute
	}
	m, ok := core.LBLModeNamed(string(v))
	if !ok {
		return 0, fmt.Errorf("ortoa: unknown LBL variant %q", v)
	}
	return m, nil
}

// FHEOptions tunes the BFV parameter set; client and server must
// agree.
type FHEOptions struct {
	// RingDegree is N (power of two ≥ 16; default 512). Plaintext
	// capacity is 2(N−1) bytes.
	RingDegree int
	// ModulusBits sizes the ciphertext modulus (default 370). More
	// bits buy more accesses per object before noise failure.
	ModulusBits int
}

func (o FHEOptions) params() (fhe.Parameters, error) {
	n := o.RingDegree
	if n == 0 {
		n = 512
	}
	bits := o.ModulusBits
	if bits == 0 {
		bits = 370
	}
	return fhe.NewParameters(n, bits)
}

// AdmissionOptions bounds a server's (or proxy front end's)
// concurrent work with deadline-aware load shedding; the zero value
// disables it. It is the transport's own configuration, documented
// there field by field.
type AdmissionOptions = transport.AdmissionConfig

// ServerConfig configures the untrusted storage server.
type ServerConfig struct {
	// Protocol selects which access handlers to serve. Empty serves
	// LBL.
	Protocol Protocol
	// ValueSize is the store's fixed plaintext value length in bytes.
	ValueSize int
	// FHE tunes BFV parameters (ProtocolFHE only).
	FHE FHEOptions
	// EnclaveTransition simulates per-ecall enclave overhead
	// (ProtocolTEE only).
	EnclaveTransition time.Duration
	// Metrics, when non-nil, instruments the server: transport, store,
	// and protocol handler metrics are registered with it (serve them
	// with ServeMetrics). Nil runs without observability overhead.
	// Metrics also arms the continuous obliviousness shape auditor:
	// every access frame's length is checked online against its class
	// and divergences fail /healthz.
	Metrics *obs.Registry
	// TraceBuffer, when positive, turns on distributed tracing
	// (requires Metrics): the server retains up to this many finished
	// spans for /trace, joining traces whose context arrives in request
	// frame headers. The trace field is part of every frame whether
	// tracing is on or off, so enabling it changes nothing the server's
	// network observer can see.
	TraceBuffer int
	// Admission, when MaxInflight is positive, bounds the server's
	// concurrent work and sheds overload with constant-size busy
	// rejections instead of queueing unboundedly.
	Admission AdmissionOptions
}

// NewMetricsRegistry returns an empty metrics registry to set as
// ServerConfig.Metrics or ClientConfig.Metrics. One registry may be
// shared by several components; same-named series aggregate.
func NewMetricsRegistry() *obs.Registry { return obs.NewRegistry() }

// ServeMetrics serves reg's observability endpoints on addr in the
// background: Prometheus-format /metrics, /healthz, /slowlog, and
// net/http/pprof under /debug/pprof/. The returned server's Addr
// field holds the resolved listen address; Close it to stop serving.
func ServeMetrics(addr string, reg *obs.Registry) (*http.Server, error) {
	return obs.ServeAdmin(addr, reg)
}

// A Server is the untrusted side of a deployment: the record store
// plus the selected protocol's handlers. It learns neither values nor
// operation types.
type Server struct {
	tier *tier.Server
}

// NewServer builds a server for cfg.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("ortoa: ServerConfig.ValueSize must be positive")
	}
	tcfg := tier.ServerConfig{
		Protocol:          tier.Protocol(cfg.Protocol),
		ValueSize:         cfg.ValueSize,
		EnclaveTransition: cfg.EnclaveTransition,
		Metrics:           cfg.Metrics,
		TraceBuffer:       cfg.TraceBuffer,
		Admission:         cfg.Admission,
	}
	if cfg.Protocol == ProtocolFHE {
		params, err := cfg.FHE.params()
		if err != nil {
			return nil, err
		}
		tcfg.FHE.Params = params
	}
	t, err := tier.NewServer(tcfg)
	if err != nil {
		return nil, err
	}
	return &Server{tier: t}, nil
}

// Serve accepts connections from l until Close. It always returns a
// non-nil error.
func (s *Server) Serve(l net.Listener) error { return s.tier.Transport.Serve(l) }

// Records returns the number of stored records.
func (s *Server) Records() int { return s.tier.Store.Len() }

// StorageBytes returns the server-side storage footprint (§5.3.1).
func (s *Server) StorageBytes() int64 { return s.tier.Store.Bytes() }

// AttachWALPolicy journals every record mutation to the bare log at
// path under the fsync policy, replaying it first; nothing ever
// checkpoints or truncates it. It is kept only because the repository
// benchmark's deployment (benchmark/deploy.go) calls it, and the
// benchmark changes in its own pull requests; use OpenState.
func (s *Server) AttachWALPolicy(path string, fsync FsyncPolicy, syncInterval time.Duration) error {
	policy, err := fsync.policy()
	if err != nil {
		return err
	}
	return s.tier.Store.AttachWALOptions(path, kvstore.WALOptions{Policy: policy, Interval: syncInterval})
}

// DurabilityOptions configures OpenState.
type DurabilityOptions struct {
	// Fsync is the WAL fsync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SyncInterval is the FsyncInterval cadence; zero selects
	// kvstore.WALOptions.Interval's default. A crash loses at most that
	// window of acknowledged writes.
	SyncInterval time.Duration
}

// OpenState makes the store durable in the state directory dir. It
// recovers the newest consistent checkpoint generation — snapshot plus
// WAL, with an interrupted checkpoint rolled forward — and journals
// every later mutation there; a first run initializes the directory.
// The store checkpoints on its own whenever its log outgrows its last
// snapshot, so a restart replays at most about one snapshot's worth of
// log. Call before Serve; on shutdown, Close and then DetachWAL.
func (s *Server) OpenState(dir string, opts DurabilityOptions) error {
	policy, err := opts.Fsync.policy()
	if err != nil {
		return err
	}
	return s.tier.Store.Recover(dir, kvstore.WALOptions{Policy: policy, Interval: opts.SyncInterval})
}

// Checkpoint snapshots the store and rotates the WAL to a fresh
// generation now, retiring the previous pair (OpenState stores only,
// before Close). Safe under concurrent traffic.
func (s *Server) Checkpoint() error { return s.tier.Store.Checkpoint() }

// Generation returns the committed checkpoint generation (OpenState
// stores; 0 otherwise).
func (s *Server) Generation() uint64 { return s.tier.Store.Generation() }

// SyncWAL flushes and fsyncs the write-ahead log.
func (s *Server) SyncWAL() error { return s.tier.Store.SyncWAL() }

// DetachWAL flushes, fsyncs, and closes the log.
func (s *Server) DetachWAL() error { return s.tier.Store.DetachWAL() }

// Close stops the store's checkpoints, waiting for one in progress,
// then stops serving.
func (s *Server) Close() error { return s.tier.Close() }

// ClientConfig configures the trusted side.
type ClientConfig struct {
	// Protocol must match the server's. Empty means LBL.
	Protocol Protocol
	// ValueSize is the fixed plaintext value length in bytes; shorter
	// writes are zero-padded by Write.
	ValueSize int
	// Keys are the trusted side's secrets.
	Keys Keys
	// LBLVariant selects the label-protocol optimization (LBL only).
	// Empty means LBLPointPermute.
	LBLVariant LBLVariant
	// FHE must match the server's FHE options (FHE only).
	FHE FHEOptions
	// Conns sizes the connection pool to the server (default 4).
	Conns int
	// CallTimeout bounds each RPC attempt to the server; a call against
	// a stalled or unreachable server fails after this long instead of
	// hanging. Zero means no deadline.
	CallTimeout time.Duration
	// RetryAttempts is the total number of attempts per RPC, including
	// the first; values below 2 disable retries. Retries are
	// at-most-once: they reuse the request id, so a request whose
	// response was lost is answered from the server's dedup cache
	// rather than re-executed, and the LBL label schedule stays
	// consistent. Reads and writes retry identically, so the retry
	// pattern leaks no operation types.
	RetryAttempts int
	// StreamChunk, when positive, is the LBL request frame budget in
	// bytes: a request longer than it is cut at whole-group boundaries
	// and written to the server frame by frame as it is built, so the
	// server trial-decrypts one frame while later ones are still being
	// garbled and in flight, pipelining proxy CPU against the WAN, and
	// the proxy's peak request memory drops to roughly one frame. Still
	// one logical request and one response. Zero never cuts; a request
	// the budget covers is one ordinary frame either way.
	StreamChunk int
	// Metrics, when non-nil, instruments the trusted side: transport
	// and per-stage access metrics are registered with it (serve them
	// with ServeMetrics). Nil runs without observability overhead.
	// Metrics also arms the proxy-side obliviousness shape auditor
	// (see ServerConfig.Metrics).
	Metrics *obs.Registry
	// TraceBuffer, when positive, turns on distributed tracing
	// (requires Metrics): accesses record per-stage span trees, retained
	// for /trace, and their context rides the fixed-size trace field of
	// every request frame so the server's spans join the same trace.
	TraceBuffer int
}

// A Client is the trusted side of a deployment — the proxy (LBL,
// baseline) or a key-holding client (TEE, FHE). It is safe for
// concurrent use; LBL accesses to the same key serialize internally.
type Client struct {
	valueSize int
	tier      *tier.Proxy

	// directory tracks loaded keys in sorted order, enabling the
	// §8.2-style range reads over primary keys.
	dirMu     sync.RWMutex
	directory []string

	// saveMu serializes SaveState writers: WriteFileAtomic's temporary
	// name is deterministic, so two concurrent saves of one path would
	// race on the same temp file.
	saveMu sync.Mutex
}

// NewClient connects a client using dial (e.g. a net.Dialer bound to
// the server address, or a netsim listener's Dial).
func NewClient(cfg ClientConfig, dial func() (net.Conn, error)) (*Client, error) {
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("ortoa: ClientConfig.ValueSize must be positive")
	}
	if err := cfg.Keys.validate(); err != nil {
		return nil, err
	}
	f, err := prf.New(cfg.Keys.PRFKey)
	if err != nil {
		return nil, err
	}
	mode, err := cfg.LBLVariant.mode()
	if err != nil {
		return nil, err
	}
	conns := cfg.Conns
	if conns <= 0 {
		conns = 4
	}
	tcfg := tier.ProxyConfig{
		Protocol:  tier.Protocol(cfg.Protocol),
		ValueSize: cfg.ValueSize,
		PRF:       f,
		DataKey:   cfg.Keys.DataKey,
		LBL:       core.LBLConfig{Mode: mode, StreamChunkBytes: cfg.StreamChunk},
		Transport: transport.Options{
			PoolSize:    conns,
			CallTimeout: cfg.CallTimeout,
			Retry:       transport.RetryPolicy{Attempts: cfg.RetryAttempts},
		},
		Metrics:     cfg.Metrics,
		TraceBuffer: cfg.TraceBuffer,
	}
	if cfg.Protocol == ProtocolFHE {
		params, err := cfg.FHE.params()
		if err != nil {
			return nil, err
		}
		tcfg.FHE = core.FHEConfig{Params: params}
		if len(cfg.Keys.FHESecretKey) > 0 {
			if tcfg.FHESecretKey, err = params.UnmarshalSecretKey(cfg.Keys.FHESecretKey); err != nil {
				return nil, err
			}
		}
	}
	t, err := tier.NewProxy(tcfg, dial)
	if err != nil {
		return nil, err
	}
	return &Client{valueSize: cfg.ValueSize, tier: t}, nil
}

// FHESecretKey returns the serialized BFV secret key in use
// (ProtocolFHE only), so it can be stored in Keys for later sessions.
func (c *Client) FHESecretKey() []byte {
	if c.tier.FHE == nil {
		return nil
	}
	return c.tier.FHE.SecretKey().Marshal()
}

// Provision attests the server's enclave and provisions the data key
// (ProtocolTEE only). Call once before accesses.
func (c *Client) Provision() error {
	if c.tier.TEE == nil {
		return fmt.Errorf("ortoa: Provision applies only to ProtocolTEE")
	}
	return c.tier.TEE.AttestAndProvisionRemote()
}

// Load encodes initial records and bulk-loads them into the server —
// the Init procedure of Figure 1. Values shorter than ValueSize are
// zero-padded.
func (c *Client) Load(data map[string][]byte) error {
	records := make([]core.KV, 0, len(data))
	for k, v := range data {
		padded, err := core.PadValue(v, c.valueSize)
		if err != nil {
			return fmt.Errorf("ortoa: value for %q: %w", k, err)
		}
		ek, rec, err := c.tier.BuildRecord(k, padded)
		if err != nil {
			return fmt.Errorf("ortoa: encoding %q: %w", k, err)
		}
		records = append(records, core.KV{Key: ek, Record: rec})
	}
	if err := core.BulkLoad(c.tier.RPC, records); err != nil {
		return err
	}
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	c.addToDirectory(keys)
	return nil
}

func (c *Client) addToDirectory(keys []string) {
	c.dirMu.Lock()
	defer c.dirMu.Unlock()
	merged := append(c.directory, keys...)
	sort.Strings(merged)
	// Deduplicate in place.
	out := merged[:0]
	for i, k := range merged {
		if i == 0 || merged[i-1] != k {
			out = append(out, k)
		}
	}
	c.directory = out
}

// Keys returns the loaded keys in sorted order.
func (c *Client) Keys() []string {
	c.dirMu.RLock()
	defer c.dirMu.RUnlock()
	return append([]string(nil), c.directory...)
}

// Read obliviously fetches the value stored under key. The server
// cannot distinguish this from a Write.
func (c *Client) Read(key string) ([]byte, error) {
	v, _, err := c.tier.Accessor.Access(core.OpRead, key, nil)
	return v, err
}

// Write obliviously replaces the value stored under key, zero-padding
// to the store's fixed value size. The server cannot distinguish this
// from a Read.
func (c *Client) Write(key string, value []byte) error {
	padded, err := core.PadValue(value, c.valueSize)
	if err != nil {
		return err
	}
	_, _, err = c.tier.Accessor.Access(core.OpWrite, key, padded)
	return err
}

// ValueSize returns the store's fixed value length.
func (c *Client) ValueSize() int { return c.valueSize }

// TrafficStats reports cumulative proxy→server traffic: the
// communication quantities §5.3.2 and §6.3.3 analyze.
func (c *Client) TrafficStats() (bytesSent, bytesReceived, calls int64) {
	st := c.tier.RPC.Stats()
	return st.BytesSent, st.BytesReceived, st.Calls
}

// batchParallelism bounds concurrent requests issued by the
// concurrent-fallback batch and range helpers.
const batchParallelism = 16

// A KVPair is one key/value result of a batch or range read.
type KVPair struct {
	Key   string
	Value []byte
}

// ReadBatch obliviously reads many keys and returns the values in
// input order. Under ProtocolLBL the whole batch is packed into a
// single LBL round — one request out, one response back —
// amortizing the per-access framing and round-trip overhead (§5.2,
// §6.3); the adversary learns only how many objects were accessed,
// exactly as with the equivalent sequence of single accesses. Other
// protocols fall back to pipelining concurrent single accesses over the
// connection pool.
func (c *Client) ReadBatch(keys []string) ([]KVPair, error) {
	if c.tier.LBL != nil {
		ops := make([]core.BatchOp, len(keys))
		for i, key := range keys {
			ops[i] = core.BatchOp{Op: core.OpRead, Key: key}
		}
		values, _, err := c.tier.LBL.AccessBatch(ops)
		if err != nil {
			return nil, fmt.Errorf("ortoa: batch read: %w", err)
		}
		out := make([]KVPair, len(keys))
		for i, key := range keys {
			out[i] = KVPair{Key: key, Value: values[i]}
		}
		return out, nil
	}
	return c.readBatchConcurrent(keys)
}

// readBatchConcurrent is the pre-batch-RPC path: one RPC per key,
// pipelined over the connection pool. It remains for the protocols
// without a batch handler.
func (c *Client) readBatchConcurrent(keys []string) ([]KVPair, error) {
	out := make([]KVPair, len(keys))
	err := core.ForEach(len(keys), batchParallelism, func(i int) error {
		v, err := c.Read(keys[i])
		if err != nil {
			return fmt.Errorf("ortoa: batch read %q: %w", keys[i], err)
		}
		out[i] = KVPair{Key: keys[i], Value: v}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteBatch obliviously writes many entries. Under ProtocolLBL the
// batch is one LBL round, indistinguishable at the
// server from a ReadBatch of the same size; other protocols write
// concurrently, one access per entry.
func (c *Client) WriteBatch(entries map[string][]byte) error {
	if c.tier.LBL != nil {
		ops := make([]core.BatchOp, 0, len(entries))
		for key, value := range entries {
			padded, err := core.PadValue(value, c.valueSize)
			if err != nil {
				return fmt.Errorf("ortoa: value for %q: %w", key, err)
			}
			ops = append(ops, core.BatchOp{Op: core.OpWrite, Key: key, Value: padded})
		}
		if _, _, err := c.tier.LBL.AccessBatch(ops); err != nil {
			return fmt.Errorf("ortoa: batch write: %w", err)
		}
		return nil
	}
	keys := make([]string, 0, len(entries))
	for key := range entries {
		keys = append(keys, key)
	}
	return core.ForEach(len(keys), batchParallelism, func(i int) error {
		if err := c.Write(keys[i], entries[keys[i]]); err != nil {
			return fmt.Errorf("ortoa: batch write %q: %w", keys[i], err)
		}
		return nil
	})
}

// ReadRange reads up to limit consecutive keys starting at start
// (inclusive), in primary-key order — the §8.2 direction: range
// queries layered over single-object oblivious accesses using the
// trusted side's key directory. It rides ReadBatch, so under
// ProtocolLBL the whole range costs one round trip. The accesses
// themselves remain individually oblivious; the adversary learns only
// that `limit` objects were accessed, as with any multi-get.
func (c *Client) ReadRange(start string, limit int) ([]KVPair, error) {
	if limit <= 0 {
		return nil, nil
	}
	return c.ReadBatch(c.rangeKeys(start, limit))
}

// rangeKeys returns up to limit directory keys at or after start, in
// sorted order — the directory walk ReadRange (and the sharded
// merge) rides on.
func (c *Client) rangeKeys(start string, limit int) []string {
	c.dirMu.RLock()
	defer c.dirMu.RUnlock()
	idx := sort.SearchStrings(c.directory, start)
	end := idx + limit
	if end > len(c.directory) {
		end = len(c.directory)
	}
	return append([]string(nil), c.directory[idx:end]...)
}

// SaveState persists the LBL access counters (§5.3.1), so that a
// resumed client runs each key at its counter from the first access. The
// write is crash-atomic (temp file, fsync, rename, directory fsync):
// a crash mid-save leaves the previous snapshot intact, never a torn
// one. For the stateless protocols SaveState is a no-op, so callers
// can save unconditionally. Counters saved mid-traffic may trail the
// server by the in-flight window; a key a resumed client finds ahead
// costs one extra round trip, its first access rebasing it. Without a
// snapshot every key the server has advanced pays that once.
// Concurrent SaveState calls (for example a periodic saver racing a
// shutdown save) serialize internally.
func (c *Client) SaveState(path string) error {
	if c.tier.LBL == nil {
		return nil
	}
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	return vfs.WriteFileAtomic(vfs.OS{}, path, c.tier.LBL.SaveCounters)
}

// LoadState restores a SaveState file. Call before issuing accesses
// when resuming an LBL deployment against an existing server store.
func (c *Client) LoadState(path string) error {
	if c.tier.LBL == nil {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.tier.LBL.LoadCounters(f)
}

// ServeProxy exposes this trusted client as a network proxy: end
// users connect to l and route oblivious accesses through it (the
// deployment model of §2.1). It blocks until Close, which stops the
// listener and drains accepted end-user connections.
func (c *Client) ServeProxy(l net.Listener) error {
	return c.ServeProxyOptions(l, ProxyServeOptions{})
}

// ProxyServeOptions tunes a proxy front end started with
// ServeProxyOptions. The zero value admits every end-user request.
// Whatever the options, under ProtocolLBL an access to a key whose round
// is in flight is held and follows it, with everything else held for
// the key, as one chain — one request, one round trip.
type ProxyServeOptions struct {
	// AggWindow is not read. It turned on a separate aggregating front
	// end, which every LBL access now behaves like; the field remains
	// only because the repository benchmark assigns it.
	AggWindow time.Duration
	// Admission, when MaxInflight is positive, bounds the front end's
	// concurrent end-user requests and sheds overload with
	// constant-size busy rejections (see AdmissionOptions). It is the
	// one bound on what a front end holds: a request waiting for its
	// key is a running handler.
	Admission AdmissionOptions
}

// ServeProxyOptions is ServeProxy with explicit front-end options.
// It blocks until Close.
func (c *Client) ServeProxyOptions(l net.Listener, opts ProxyServeOptions) error {
	front, err := c.tier.NewFront(tier.FrontConfig{Admission: opts.Admission})
	if err != nil {
		return err
	}
	return front.Transport.Serve(l)
}

// Close shuts the client down gracefully: proxy front ends started
// with ServeProxy stop accepting, accepted end-user connections drain
// (their in-flight accesses complete and are answered, those held for
// a busy key included), and only then are the connections to the
// server released. Close is idempotent and safe to call concurrently
// with serving.
func (c *Client) Close() error { return c.tier.Close() }

// A ProxyClient is an end-user handle that routes requests through a
// trusted proxy started with ServeProxy. It holds no secrets.
type ProxyClient struct {
	remote *core.RemoteAccessor
	rpc    *transport.Client
}

// ProxyOptions tunes a ProxyClient's fault tolerance; the zero value
// means no per-call deadline and no retries.
type ProxyOptions struct {
	// CallTimeout bounds each request attempt to the proxy; zero means
	// no deadline.
	CallTimeout time.Duration
	// RetryAttempts is the total number of attempts per request,
	// including the first; values below 2 disable retries. Retries are
	// at-most-once (see ClientConfig.RetryAttempts).
	RetryAttempts int
}

// DialProxy connects to a proxy with no deadline or retries.
func DialProxy(dial func() (net.Conn, error), conns int) (*ProxyClient, error) {
	return DialProxyOptions(dial, conns, ProxyOptions{})
}

// DialProxyOptions connects to a proxy with explicit fault-tolerance
// options.
func DialProxyOptions(dial func() (net.Conn, error), conns int, opts ProxyOptions) (*ProxyClient, error) {
	if conns <= 0 {
		conns = 2
	}
	rpc, err := transport.DialOptions(dial, transport.Options{
		PoolSize:    conns,
		CallTimeout: opts.CallTimeout,
		Retry:       transport.RetryPolicy{Attempts: opts.RetryAttempts},
	})
	if err != nil {
		return nil, err
	}
	return &ProxyClient{remote: core.NewRemoteAccessor(rpc), rpc: rpc}, nil
}

// Read fetches the value stored under key via the proxy.
func (p *ProxyClient) Read(key string) ([]byte, error) {
	v, _, err := p.remote.Access(core.OpRead, key, nil)
	return v, err
}

// Write replaces the value stored under key via the proxy. The value
// must already match the store's fixed size (the proxy rejects
// mismatches).
func (p *ProxyClient) Write(key string, value []byte) error {
	_, _, err := p.remote.Access(core.OpWrite, key, value)
	return err
}

// Close releases the proxy connections.
func (p *ProxyClient) Close() error { return p.rpc.Close() }
