// Command ortoa-proxy runs the trusted side of an ORTOA deployment:
// it holds the secret keys (and, for LBL, the per-key access
// counters), connects to the untrusted ortoa-server, and serves
// oblivious accesses to end-user clients (§2.1's proxy model).
//
// Usage:
//
//	ortoa-proxy -server localhost:7001 -listen :7002 \
//	    -protocol lbl -value-size 160 -keys keys.json \
//	    -load-synthetic 10000
//
// Keys are created on first run and reused afterwards.
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ortoa"
	"ortoa/internal/obs"
	"ortoa/internal/workload"
)

var (
	serverAddr    = flag.String("server", "localhost:7001", "ortoa-server address")
	listen        = flag.String("listen", ":7002", "address to serve clients on")
	protocol      = flag.String("protocol", "lbl", "protocol: lbl, tee, fhe, or 2rtt")
	valueSize     = flag.Int("value-size", 160, "fixed value size in bytes")
	keysPath      = flag.String("keys", "ortoa-keys.json", "keys file (created if missing)")
	variant       = flag.String("lbl-variant", "point-permute", "LBL variant: basic, space-opt, point-permute")
	conns         = flag.Int("conns", 32, "connection pool size to the server")
	callTimeout   = flag.Duration("call-timeout", 0, "per-attempt deadline for server RPCs, e.g. 500ms (0 disables)")
	retries       = flag.Int("retries", 0, "total attempts per server RPC; at-most-once retries (<2 disables)")
	loadSynthetic = flag.Int("load-synthetic", 0, "bulk-load N synthetic records at startup")
	statePath     = flag.String("state", "", "LBL access-counter state file (restored at startup, saved on shutdown)")
	stateEvery    = flag.Duration("state-interval", 0, "also save -state crash-atomically this often, bounding the counter-loss window (0 disables; needs -state)")
	maxInflight   = flag.Int("max-inflight", 0, "handle at most this many client requests concurrently, shedding overload with constant-size busy frames (0 disables admission control)")
	maxQueue      = flag.Int("max-queue", 0, "client requests waiting for an inflight slot before overflow is shed, served newest-first (needs -max-inflight)")
	shedDeadline  = flag.Bool("shed-deadline", true, "drop client requests whose deadline budget expired before doing any work (needs -max-inflight)")
	retryAfter    = flag.Duration("retry-after", 0, "backoff hint carried in busy rejections (0 = default 25ms; needs -max-inflight)")
	streamChunk   = flag.Int("stream-chunk", 0, "request frame budget in bytes: longer requests are cut at group boundaries and sent frame by frame as they are built, pipelining garbling against the WAN (LBL; 0 never cuts)")
	fheDegree     = flag.Int("fhe-degree", 512, "BFV ring degree (fhe)")
	fheBits       = flag.Int("fhe-modulus-bits", 370, "BFV modulus bits (fhe)")
	metricsAddr   = flag.String("metrics-addr", "", "serve /metrics, /healthz, /slowlog, /trace, and /debug/pprof on this address (e.g. :7092)")
	traceBuffer   = flag.Int("trace-buffer", 4096, "retain this many finished trace spans for /trace; 0 disables tracing (needs -metrics-addr)")
)

func main() { os.Exit(run()) }

// checkFlags refuses a flag that the others would leave without effect:
// a mistyped setting must not pass for a set one.
func checkFlags() error {
	switch {
	case *maxInflight <= 0 && (*maxQueue != 0 || *retryAfter != 0):
		return errors.New("-max-queue and -retry-after require -max-inflight (without it nothing is bounded)")
	case *stateEvery > 0 && *statePath == "":
		return errors.New("-state-interval requires -state (the file it saves)")
	}
	return nil
}

// run is main's body, returning the exit status so that deferred closes
// run before the process exits; log.Fatal is for failures before serving.
func run() int {
	log.SetPrefix("ortoa-proxy: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	flag.Parse()
	if err := checkFlags(); err != nil {
		log.Fatal(err)
	}

	keys, err := ortoa.LoadOrGenerateKeys(*keysPath)
	if err != nil {
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

	client, err := ortoa.NewClient(ortoa.ClientConfig{
		Protocol:      ortoa.Protocol(*protocol),
		ValueSize:     *valueSize,
		Keys:          keys,
		LBLVariant:    ortoa.LBLVariant(*variant),
		Conns:         *conns,
		CallTimeout:   *callTimeout,
		RetryAttempts: *retries,
		StreamChunk:   *streamChunk,
		FHE:           ortoa.FHEOptions{RingDegree: *fheDegree, ModulusBits: *fheBits},
		Metrics:       reg,
		TraceBuffer:   *traceBuffer,
	}, func() (net.Conn, error) { return net.Dial("tcp", *serverAddr) })
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	if ortoa.Protocol(*protocol) == ortoa.ProtocolTEE {
		if err := client.Provision(); err != nil {
			log.Fatalf("attesting server enclave: %v", err)
		}
		log.Print("enclave attested and provisioned")
	}
	if ortoa.Protocol(*protocol) == ortoa.ProtocolFHE && len(keys.FHESecretKey) == 0 {
		keys.FHESecretKey = client.FHESecretKey()
		if err := keys.Save(*keysPath); err != nil {
			log.Fatalf("persisting FHE secret key: %v", err)
		}
	}

	if *statePath != "" {
		if _, err := os.Stat(*statePath); err == nil {
			if err := client.LoadState(*statePath); err != nil {
				log.Fatalf("restoring counter state: %v", err)
			}
			log.Printf("restored LBL counters from %s", *statePath)
		}
	}

	if *loadSynthetic > 0 {
		data := workload.InitialData(workload.Config{
			NumKeys: *loadSynthetic, ValueSize: *valueSize, Seed: 1,
		})
		if err := client.Load(data); err != nil {
			log.Fatalf("bulk load: %v", err)
		}
		log.Printf("loaded %d synthetic records (keys key-00000000..key-%08d)", *loadSynthetic, *loadSynthetic-1)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("proxying protocol=%s server=%s on %s", *protocol, *serverAddr, l.Addr())
	if *maxInflight > 0 {
		log.Printf("admission control: max-inflight=%d max-queue=%d shed-deadline=%v", *maxInflight, *maxQueue, *shedDeadline)
	}

	stopSaver := make(chan struct{})
	if *stateEvery > 0 {
		// Periodic crash-atomic saves bound the counters a proxy crash
		// leaves behind to one interval's accesses, each of which costs
		// its key one extra round trip after a restart. The ticker is
		// stopped on shutdown; SaveState itself serializes against the
		// final shutdown save.
		ticker := time.NewTicker(*stateEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := client.SaveState(*statePath); err != nil {
						log.Printf("saving counter state: %v", err)
					}
				case <-stopSaver:
					return
				}
			}
		}()
	}

	opts := ortoa.ProxyServeOptions{
		Admission: ortoa.AdmissionOptions{
			MaxInflight: *maxInflight,
			MaxQueue:    *maxQueue,
			ShedExpired: *shedDeadline,
			RetryAfter:  *retryAfter,
		},
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- client.ServeProxyOptions(l, opts) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	status := 0
	select {
	case s := <-sig:
		log.Printf("received %s; draining", s)
	case err := <-serveErr:
		// Serving ended by itself: a failure, reported by the exit status
		// once the state below is closed and saved.
		log.Printf("proxy stopped: %v", err)
		status = 1
	}
	close(stopSaver)

	// Graceful shutdown: Close stops the listener and drains accepted
	// client connections (in-flight accesses complete, those held for a
	// busy key included) before releasing the server connections — only
	// then is the final counter snapshot taken, so it reflects every
	// acknowledged access. Returning (not os.Exit) lets the deferred
	// admin.Close run.
	if err := client.Close(); err != nil {
		log.Printf("closing client: %v", err)
	}
	if *statePath != "" {
		if err := client.SaveState(*statePath); err != nil {
			log.Printf("saving counter state: %v", err)
		} else {
			log.Printf("saved LBL counters to %s", *statePath)
		}
	}
	return status
}
