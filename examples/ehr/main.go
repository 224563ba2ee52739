// EHR: electronic health records under GDPR-style data residency
// (§6.3.2, Fig 3d) with malicious-tamper detection (§5.4).
//
// A hospital keeps patient records on a server that data-residency
// law pins to Europe while its clinicians work from the US west
// coast: every access crosses a 147.7 ms RTT link (Table 2, London).
// On such a link the round count dominates latency, so LBL-ORTOA's
// single round beats the two-round baseline even though it ships
// larger messages — the example measures both.
//
// LBL-ORTOA's label encoding also gives integrity for free: the proxy
// knows which labels can exist, so a tampering server is caught the
// moment it returns bytes it did not obtain by honestly running the
// protocol. The example corrupts the snapshot in the server's state
// directory, restarts the server from it, and shows the accesses fail
// with a tamper error.
//
// Run with: go run ./examples/ehr
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"ortoa"
	"ortoa/internal/netsim"
	"ortoa/internal/workload"
)

func main() {
	ds := workload.EHR(500) // UUID patient keys, 10-byte vitals

	// --- Part 1: one round vs two rounds on an EU-resident server ---
	fmt.Println("part 1: access latency with an EU-resident server (London link)")
	keys := ortoa.GenerateKeys()
	patient := ds.Records[17].Key

	for _, proto := range []ortoa.Protocol{ortoa.ProtocolLBL, ortoa.ProtocolBaseline2RTT} {
		server, err := ortoa.NewServer(ortoa.ServerConfig{Protocol: proto, ValueSize: ds.ValueSize})
		if err != nil {
			log.Fatal(err)
		}
		link := netsim.Listen(netsim.London)
		go server.Serve(link)
		client, err := ortoa.NewClient(ortoa.ClientConfig{
			Protocol: proto, ValueSize: ds.ValueSize, Keys: keys,
		}, func() (net.Conn, error) { return link.Dial() })
		if err != nil {
			log.Fatal(err)
		}
		if err := client.Load(ds.Data()); err != nil {
			log.Fatal(err)
		}
		const ops = 5
		start := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := client.Read(patient); err != nil {
				log.Fatal(err)
			}
		}
		perOp := time.Since(start) / ops
		fmt.Printf("  %-12s %v per access\n", proto, perOp.Round(time.Millisecond))
		client.Close()
		server.Close()
	}

	// --- Part 2: tamper detection (§5.4) ---
	fmt.Println("\npart 2: detecting a tampering server")
	dir, err := os.MkdirTemp("", "ortoa-ehr")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	server, client := serveState(dir, ds.ValueSize, keys)
	if err := client.Load(ds.Data()); err != nil {
		log.Fatal(err)
	}
	v, err := client.Read(patient)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  honest server: patient %s… -> %q\n", patient[:8], v)
	counters := filepath.Join(dir, "proxy.state")
	if err := client.SaveState(counters); err != nil {
		log.Fatal(err)
	}
	if err := server.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	snap := filepath.Join(dir, "server", fmt.Sprintf("snap-%08d", server.Generation()))
	client.Close()
	server.Close()
	if err := server.DetachWAL(); err != nil {
		log.Fatal(err)
	}

	// The "adversary" flips bits in the server's persisted state —
	// e.g. a malicious cloud operator editing the disk image — and the
	// server restarts from it.
	raw, err := os.ReadFile(snap)
	if err != nil {
		log.Fatal(err)
	}
	for i := len(raw) - 64; i < len(raw); i++ {
		raw[i] ^= 0xFF // corrupt the tail: stored label bytes
	}
	if err := os.WriteFile(snap, raw, 0o600); err != nil {
		log.Fatal(err)
	}
	server, client = serveState(dir, ds.ValueSize, keys)
	defer server.DetachWAL()
	defer server.Close()
	defer client.Close()
	if err := client.LoadState(counters); err != nil {
		log.Fatal(err)
	}

	// Some record's labels are now forged; scanning reads must catch
	// it — the proxy accepts only labels its PRF could have produced.
	tampered := 0
	for _, r := range ds.Records {
		if _, err := client.Read(r.Key); err != nil {
			tampered++
		}
	}
	if tampered == 0 {
		log.Fatal("corruption went undetected — §5.4 check failed")
	}
	fmt.Printf("  tampering server: corruption detected on %d record(s); data cannot be silently altered\n", tampered)
}

// serveState starts an LBL server whose store lives in dir/server and
// connects a client to it.
func serveState(dir string, valueSize int, keys ortoa.Keys) (*ortoa.Server, *ortoa.Client) {
	server, err := ortoa.NewServer(ortoa.ServerConfig{Protocol: ortoa.ProtocolLBL, ValueSize: valueSize})
	if err != nil {
		log.Fatal(err)
	}
	if err := server.OpenState(filepath.Join(dir, "server"), ortoa.DurabilityOptions{}); err != nil {
		log.Fatal(err)
	}
	link := netsim.Listen(netsim.Loopback)
	go server.Serve(link)
	client, err := ortoa.NewClient(ortoa.ClientConfig{Protocol: ortoa.ProtocolLBL, ValueSize: valueSize, Keys: keys},
		func() (net.Conn, error) { return link.Dial() })
	if err != nil {
		log.Fatal(err)
	}
	return server, client
}
