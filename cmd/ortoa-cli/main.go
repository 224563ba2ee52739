// Command ortoa-cli is an end-user client for an ORTOA deployment: it
// routes GET/PUT requests through a trusted ortoa-proxy. It holds no
// secrets.
//
// Usage:
//
//	ortoa-cli -proxy localhost:7002 get key-00000007
//	ortoa-cli -proxy localhost:7002 put key-00000007 'new value'
//	ortoa-cli -proxy localhost:7002 -value-size 160 bench -ops 100 -clients 8 -keys 1000
//
// Against a multi-proxy deployment, pass every proxy instead: requests
// go to the proxy the ring places each key on and fail over to the
// surviving peers when one dies mid-command:
//
//	ortoa-cli -proxies host1:7002,host2:7002,host3:7002 get key-00000007
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"ortoa"
	"ortoa/internal/stats"
	"ortoa/internal/workload"
)

// A store is what both proxy handles (single ortoa.ProxyClient,
// failover ortoa.ProxyGroup) expose to the commands below.
type store interface {
	Read(key string) ([]byte, error)
	Write(key string, value []byte) error
	Close() error
}

func main() {
	log.SetPrefix("ortoa-cli: ")
	log.SetFlags(0)

	proxyAddr := flag.String("proxy", "localhost:7002", "ortoa-proxy address")
	proxyList := flag.String("proxies", "", "comma-separated addresses of every proxy in a multi-proxy deployment (overrides -proxy; places each key on one proxy, fails over on proxy death)")
	valueSize := flag.Int("value-size", 160, "store's fixed value size (put pads; bench generates)")
	callTimeout := flag.Duration("call-timeout", 2*time.Second, "per-attempt deadline with -proxies, so a dead proxy costs a failover instead of a hang (0 disables)")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("usage: ortoa-cli [flags] get KEY | put KEY VALUE | bench [bench flags]")
	}

	// connect dials either the one proxy or the failover group.
	connect := func(conns int) (store, error) {
		if *proxyList == "" {
			dial := func() (net.Conn, error) { return net.Dial("tcp", *proxyAddr) }
			return ortoa.DialProxy(dial, conns)
		}
		var members []ortoa.ProxyGroupMember
		for _, a := range strings.Split(*proxyList, ",") {
			addr := strings.TrimSpace(a)
			if addr == "" {
				continue
			}
			members = append(members, ortoa.ProxyGroupMember{
				Name: addr,
				Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
			})
		}
		return ortoa.DialProxyGroup(members, ortoa.ProxyGroupOptions{
			Conns:       conns,
			CallTimeout: *callTimeout,
		})
	}

	switch args[0] {
	case "get":
		if len(args) != 2 {
			log.Fatal("usage: get KEY")
		}
		client, err := connect(1)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		v, err := client.Read(args[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%q\n", v)
	case "put":
		if len(args) != 3 {
			log.Fatal("usage: put KEY VALUE")
		}
		client, err := connect(1)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		value := make([]byte, *valueSize)
		if copy(value, args[2]) < len(args[2]) {
			log.Fatalf("value exceeds fixed size %d", *valueSize)
		}
		if err := client.Write(args[1], value); err != nil {
			if ortoa.Ambiguous(err) {
				log.Fatalf("outcome unknown (write may have applied; rewriting is safe): %v", err)
			}
			log.Fatal(err)
		}
		fmt.Println("ok")
	case "bench":
		benchCmd(connect, *valueSize, args[1:])
	default:
		log.Fatalf("unknown command %q", args[0])
	}
}

// benchCmd drives a closed-loop random workload through the proxy (or
// proxy group) and prints latency/throughput, mirroring the paper's
// measurement loop.
func benchCmd(connect func(conns int) (store, error), valueSize int, args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	ops := fs.Int("ops", 100, "operations per client")
	clients := fs.Int("clients", 8, "concurrent closed-loop clients")
	keys := fs.Int("keys", 1000, "key space (key-00000000..)")
	writeFrac := fs.Float64("write-fraction", 0.5, "fraction of writes")
	fs.Parse(args)

	client, err := connect(*clients)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	rec := stats.NewRecorder(*ops * *clients)
	var wg sync.WaitGroup
	var mu sync.Mutex
	errCount := 0
	start := time.Now()
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), uint64(time.Now().UnixNano())))
			for i := 0; i < *ops; i++ {
				key := workload.Key(rng.IntN(*keys))
				var err error
				opStart := time.Now()
				if rng.Float64() < *writeFrac {
					value := make([]byte, valueSize)
					for j := range value {
						value[j] = byte(rng.Uint32())
					}
					err = client.Write(key, value)
				} else {
					_, err = client.Read(key)
				}
				rec.Add(time.Since(opStart))
				if err != nil {
					mu.Lock()
					errCount++
					if errCount == 1 {
						log.Printf("first error: %v", err)
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := *ops * *clients
	fmt.Printf("ops=%d errors=%d elapsed=%v throughput=%.0f ops/s\n",
		total, errCount, elapsed.Round(time.Millisecond), stats.Throughput(total, elapsed))
	fmt.Printf("latency: %v\n", rec.Summarize())
	if errCount > 0 {
		os.Exit(1)
	}
}
