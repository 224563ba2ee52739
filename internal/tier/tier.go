// Package tier wires the two tiers of an ORTOA deployment (§2.1): the
// untrusted server tier — record store, durability, transport server,
// protocol handlers — and the trusted tier — connection pool, protocol
// proxy, and the front ends end users dial. The daemons (through the
// ortoa package), the harness clusters and their fault drills are all
// built by these constructors, so the instrument → audit → trace →
// admit → register recipe and the per-protocol switches exist once,
// and a tier restarted mid-drill is built exactly like a first one.
package tier

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/fhe"
	"ortoa/internal/kvstore"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
	"ortoa/internal/transport"
)

// Protocol selects an ORTOA variant, by the public package's names.
type Protocol string

const (
	LBL      Protocol = "lbl"
	TEE      Protocol = "tee"
	FHE      Protocol = "fhe"
	Baseline Protocol = "2rtt"
)

// ServerConfig describes one untrusted server tier.
type ServerConfig struct {
	// Protocol selects the access handlers; empty serves LBL.
	Protocol Protocol
	// ValueSize is the store's fixed plaintext value length in bytes.
	ValueSize int
	// FHE fixes the BFV parameters and degree cap (FHE only); its
	// ValueSize is taken from the field above.
	FHE core.FHEConfig
	// EnclaveTransition simulates per-ecall enclave overhead (TEE only).
	EnclaveTransition time.Duration
	// StateDir, when non-empty, is the state directory the store
	// recovers from and journals to (kvstore.Store.Recover, with
	// Durability, whose FS is where crash drills inject a faulty disk)
	// before NewServer returns. The store checkpoints it on its own.
	StateDir   string
	Durability kvstore.WALOptions
	// Metrics, when non-nil, instruments store, transport and protocol
	// handlers and arms the server-side shape auditor; TraceBuffer, when
	// also positive, retains that many finished spans for /trace.
	Metrics     *obs.Registry
	TraceBuffer int
	// Admission bounds concurrent work; the zero value admits everything.
	Admission transport.AdmissionConfig
}

// A Server is a wired server tier. Serve it with Transport.Serve.
type Server struct {
	Store     *kvstore.Store
	Transport *transport.Server
	// TEE is the enclave host, for in-process attestation; nil under
	// other protocols.
	TEE *core.TEEServer

	metrics *obs.Registry // this instance's scope of cfg.Metrics
}

// NewServer builds the server tier for cfg.
func NewServer(cfg ServerConfig) (*Server, error) {
	reg := cfg.Metrics.Scope()
	s := &Server{Store: kvstore.New(), Transport: transport.NewServer(), metrics: reg}
	s.Store.Instrument(reg)
	s.Transport.Instrument(reg)
	s.Transport.AuditShape(obs.NewShapeAuditor(reg, "server"), core.ShapeClassify)
	if cfg.TraceBuffer > 0 {
		s.Transport.SetTracer(reg.Tracer("server", cfg.TraceBuffer))
	}
	s.Transport.LimitAdmission(cfg.Admission)
	core.RegisterLoader(s.Transport, s.Store)
	switch cfg.Protocol {
	case LBL, "":
		lblSrv := core.NewLBLServer(s.Store)
		lblSrv.Instrument(reg)
		lblSrv.Register(s.Transport)
	case TEE:
		teeSrv, err := core.NewTEEServer(s.Store, cfg.EnclaveTransition)
		if err != nil {
			reg.Retire()
			return nil, err
		}
		teeSrv.Instrument(reg)
		teeSrv.Register(s.Transport)
		s.TEE = teeSrv
	case FHE:
		cfg.FHE.ValueSize = cfg.ValueSize
		fheSrv := core.NewFHEServer(s.Store, cfg.FHE)
		fheSrv.Instrument(reg)
		fheSrv.Register(s.Transport)
	case Baseline:
		core.NewBaselineServer(s.Store).Register(s.Transport)
	default:
		reg.Retire()
		return nil, fmt.Errorf("tier: unknown protocol %q", cfg.Protocol)
	}
	if cfg.StateDir != "" {
		if err := s.Store.Recover(cfg.StateDir, cfg.Durability); err != nil {
			reg.Retire()
			return nil, err
		}
	}
	return s, nil
}

// Close stops the store's checkpoints — waiting for one in progress, so
// that a crash drill's dead store never writes into the directory its
// replacement recovers — stops serving, and retires this instance's
// scrape-time metrics so a replacement built against the same registry
// is not summed with it. It flushes nothing: a graceful caller detaches
// the store's WAL afterwards, a crash drill does not.
func (s *Server) Close() error {
	s.Store.StopCheckpoints()
	err := s.Transport.Close()
	s.metrics.Retire()
	return err
}

// ProxyConfig describes one trusted tier.
type ProxyConfig struct {
	// Protocol must match the server's; empty means LBL.
	Protocol Protocol
	// ValueSize is the fixed plaintext value length in bytes.
	ValueSize int
	// PRF encodes keys and derives labels; DataKey seals values (TEE
	// and baseline only).
	PRF     *prf.PRF
	DataKey []byte
	// LBL and FHE carry the protocol's own settings; each one's
	// ValueSize is taken from the field above.
	LBL core.LBLConfig
	FHE core.FHEConfig
	// FHESecretKey is the BFV secret key to use; nil generates one.
	FHESecretKey *fhe.SecretKey
	// Transport sizes and tunes the connection pool to the server.
	Transport transport.Options
	// Metrics and TraceBuffer are as in ServerConfig, for the proxy side.
	Metrics     *obs.Registry
	TraceBuffer int
}

// A Proxy is a wired trusted tier: the pool to the server, the
// protocol's trusted side over it, and the front ends NewFront started.
type Proxy struct {
	// Accessor performs accesses.
	Accessor core.Accessor
	RPC      *transport.Client
	// LBL, TEE and FHE are the protocol's trusted side (counter state,
	// attestation, keys); nil under other protocols.
	LBL *core.LBLProxy
	TEE *core.TEEClient
	FHE *core.FHEClient

	builder interface {
		BuildRecord(key string, value []byte) (string, []byte, error)
	}
	metrics *obs.Registry // this instance's scope of cfg.Metrics
	tracer  *trace.Tracer
	auditor *obs.ShapeAuditor

	mu     sync.Mutex // guards fronts and closed
	fronts []*Front
	closed bool
}

// NewProxy dials the server tier and builds cfg's trusted tier over
// the pool.
func NewProxy(cfg ProxyConfig, dial func() (net.Conn, error)) (*Proxy, error) {
	rpc, err := transport.DialOptions(dial, cfg.Transport)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics.Scope()
	p := &Proxy{RPC: rpc, metrics: reg, auditor: obs.NewShapeAuditor(reg, "proxy")}
	rpc.Instrument(reg)
	rpc.AuditShape(p.auditor, core.ShapeClassify)
	if cfg.TraceBuffer > 0 {
		p.tracer = reg.Tracer("proxy", cfg.TraceBuffer)
		rpc.SetTracer(p.tracer)
	}
	if err := p.wire(cfg); err != nil {
		p.Close() //nolint:errcheck // reporting the wiring error
		return nil, err
	}
	return p, nil
}

// wire builds cfg.Protocol's trusted side over p.RPC.
func (p *Proxy) wire(cfg ProxyConfig) error {
	switch cfg.Protocol {
	case LBL, "":
		cfg.LBL.ValueSize = cfg.ValueSize
		proxy, err := core.NewLBLProxy(cfg.LBL, cfg.PRF, p.RPC)
		if err != nil {
			return err
		}
		proxy.Instrument(p.metrics)
		proxy.TraceWith(p.tracer)
		p.Accessor, p.builder, p.LBL = proxy, proxy, proxy
	case TEE:
		client, err := core.NewTEEClient(core.TEEConfig{ValueSize: cfg.ValueSize}, cfg.PRF, cfg.DataKey, p.RPC)
		if err != nil {
			return err
		}
		client.Instrument(p.metrics)
		client.TraceWith(p.tracer)
		p.Accessor, p.builder, p.TEE = client, client, client
	case FHE:
		cfg.FHE.ValueSize = cfg.ValueSize
		sk := cfg.FHESecretKey
		if sk == nil {
			var err error
			if sk, err = cfg.FHE.Params.KeyGen(); err != nil {
				return err
			}
		}
		client, err := core.NewFHEClientWithKey(cfg.FHE, cfg.PRF, sk, p.RPC)
		if err != nil {
			return err
		}
		if cfg.FHE.RelinBaseBits > 0 {
			if err := client.ProvisionRelinKey(); err != nil {
				return fmt.Errorf("tier: provisioning relinearization key: %w", err)
			}
		}
		client.Instrument(p.metrics)
		client.TraceWith(p.tracer)
		p.Accessor, p.builder, p.FHE = client, client, client
	case Baseline:
		proxy, err := core.NewBaselineProxy(core.BaselineConfig{ValueSize: cfg.ValueSize}, cfg.PRF, cfg.DataKey, p.RPC)
		if err != nil {
			return err
		}
		p.Accessor, p.builder = proxy, proxy
	default:
		return fmt.Errorf("tier: unknown protocol %q", cfg.Protocol)
	}
	return nil
}

// BuildRecord encodes the initial record for (key, value).
func (p *Proxy) BuildRecord(key string, value []byte) (string, []byte, error) {
	return p.builder.BuildRecord(key, value)
}

// FrontConfig tunes one proxy front end. The zero value admits every
// end-user request; each is one access.
type FrontConfig struct {
	// Admission bounds the front end's concurrent end-user requests: the
	// one bound on what it holds, a request waiting for its key being a
	// running handler.
	Admission transport.AdmissionConfig
}

// A Front is one end-user-facing endpoint of a Proxy. Serve it with
// Transport.Serve; the owning Proxy's Close stops it.
type Front struct {
	Transport *transport.Server
}

// NewFront builds a front end exposing p to end users (§2.1's
// client→proxy hop), instrumented, audited and traced like the pool
// behind it.
func (p *Proxy) NewFront(cfg FrontConfig) (*Front, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, transport.ErrClosed
	}
	f := &Front{Transport: transport.NewServer()}
	f.Transport.Instrument(p.metrics)
	f.Transport.AuditShape(p.auditor, core.ShapeClassify)
	f.Transport.SetTracer(p.tracer)
	f.Transport.LimitAdmission(cfg.Admission)
	core.RegisterProxyService(f.Transport, p.Accessor)
	p.fronts = append(p.fronts, f)
	return f, nil
}

// Close shuts the tier down gracefully: front ends stop accepting and
// drain (in-flight end-user accesses complete and are answered, those
// held for a busy key included — each is a handler the drain waits for),
// and only then are the connections to the server released and this
// instance's scrape-time metrics retired.
// Close is idempotent and safe to call concurrently with serving. A
// crash drill closes RPC first, so in-flight accesses fail instead of
// draining.
func (p *Proxy) Close() error {
	p.mu.Lock()
	fronts := p.fronts
	p.fronts, p.closed = nil, true
	p.mu.Unlock()
	for _, f := range fronts {
		f.Transport.Close() //nolint:errcheck // best-effort drain
	}
	err := p.RPC.Close()
	p.metrics.Retire()
	return err
}
