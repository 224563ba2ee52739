// Command ortoa-server runs the untrusted ORTOA storage server: the
// record store plus the access handlers of one protocol. It learns
// neither plaintext values nor operation types.
//
// Usage:
//
//	ortoa-server -listen :7001 -protocol lbl -value-size 160
//
// With -state, the store lives in that state directory: it is
// recovered at startup, every mutation is journaled under the -fsync
// policy (group-commit = durable-on-ack), and the store checkpoints on
// its own whenever its log outgrows its last snapshot, which bounds
// recovery replay time. Without it the store is in memory only.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ortoa"
	"ortoa/internal/obs"
)

var (
	listen       = flag.String("listen", ":7001", "address to listen on")
	protocol     = flag.String("protocol", "lbl", "protocol: lbl, tee, fhe, or 2rtt")
	valueSize    = flag.Int("value-size", 160, "fixed value size in bytes")
	stateDir     = flag.String("state", "", "state directory the store is recovered from and made durable in; it checkpoints itself as its log grows (empty: in memory only)")
	fsync        = flag.String("fsync", "interval", "WAL fsync policy under -state: never, interval, or group-commit (durable-on-ack)")
	walSyncEvery = flag.Duration("wal-sync", 0, "fsync cadence for -fsync interval (0: the store's default, kvstore.WALOptions.Interval)")
	enclaveCost  = flag.Duration("enclave-cost", 0, "simulated per-ecall enclave transition cost (tee)")
	fheDegree    = flag.Int("fhe-degree", 0, "BFV ring degree (fhe; 0: the default of ortoa.FHEOptions.RingDegree); the proxy must agree")
	fheBits      = flag.Int("fhe-modulus-bits", 0, "BFV modulus bits (fhe; 0: the default of ortoa.FHEOptions.ModulusBits); the proxy must agree")
	metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /healthz, /slowlog, /trace, and /debug/pprof on this address (e.g. :7091)")
	traceBuffer  = flag.Int("trace-buffer", 4096, "retain this many finished trace spans for /trace; 0 disables tracing (needs -metrics-addr)")
	maxInflight  = flag.Int("max-inflight", 0, "handle at most this many requests concurrently, shedding overload and requests whose deadline budget expired with constant-size busy frames (0 disables admission control)")
	maxQueue     = flag.Int("max-queue", 0, "requests waiting for an inflight slot before overflow is shed, served newest-first (needs -max-inflight)")
	retryAfter   = flag.Duration("retry-after", 0, "backoff hint carried in busy rejections (0 = default 25ms; needs -max-inflight)")
)

// checkFlags refuses a flag that the others would leave without effect:
// a mistyped setting must not pass for a set one.
func checkFlags() error {
	if *maxInflight <= 0 && (*maxQueue != 0 || *retryAfter != 0) {
		return errors.New("-max-queue and -retry-after require -max-inflight (without it nothing is bounded)")
	}
	return nil
}

func main() {
	log.SetPrefix("ortoa-server: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	flag.Parse()
	if err := checkFlags(); err != nil {
		log.Fatal(err)
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		admin, err := obs.ServeAdmin(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer admin.Close()
		log.Printf("metrics on http://%s/metrics", admin.Addr)
	}

	server, err := ortoa.NewServer(ortoa.ServerConfig{
		Protocol:          ortoa.Protocol(*protocol),
		ValueSize:         *valueSize,
		EnclaveTransition: *enclaveCost,
		FHE:               ortoa.FHEOptions{RingDegree: *fheDegree, ModulusBits: *fheBits},
		Metrics:           reg,
		TraceBuffer:       *traceBuffer,
		Admission: ortoa.AdmissionOptions{
			MaxInflight: *maxInflight,
			MaxQueue:    *maxQueue,
			RetryAfter:  *retryAfter,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if *maxInflight > 0 {
		log.Printf("admission control: max-inflight=%d max-queue=%d", *maxInflight, *maxQueue)
	}

	if *stateDir != "" {
		opts := ortoa.DurabilityOptions{Fsync: ortoa.FsyncPolicy(*fsync), SyncInterval: *walSyncEvery}
		if err := server.OpenState(*stateDir, opts); err != nil {
			log.Fatalf("opening state directory: %v", err)
		}
		log.Printf("state recovered from %s (generation %d, %d records, fsync=%s)",
			*stateDir, server.Generation(), server.Records(), *fsync)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving protocol=%s value-size=%d on %s", *protocol, *valueSize, l.Addr())

	// Periodic stats for operators.
	go func() {
		for range time.Tick(30 * time.Second) {
			fmt.Printf("records=%d storage=%dB\n", server.Records(), server.StorageBytes())
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(l) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %s; draining", s)
	case err := <-serveErr:
		log.Printf("serving ended by itself: %v", err)
	}
	shutdown(server)
	log.Print("server stopped")
}

// shutdown stops server without losing an acknowledged access: it stops
// serving and drains first, and only then detaches the log, if there is
// one. Detached any earlier, the store would go on serving — and
// acknowledging — accesses that are not in the log.
func shutdown(server *ortoa.Server) {
	if err := server.Close(); err != nil {
		log.Printf("closing server: %v", err)
	}
	if err := server.DetachWAL(); err != nil {
		log.Printf("closing WAL: %v", err)
	}
}
