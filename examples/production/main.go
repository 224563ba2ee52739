// Production: the operational features a real ORTOA deployment needs
// beyond the protocol — crash durability, proxy-state persistence, and
// scale-out sharding (§6.2.4).
//
// The example simulates a full lifecycle:
//
//  1. two proxy/server shard pairs are deployed, each server's store in
//     a state directory that checkpoints itself as its log grows,
//  2. a workload runs and LBL counters advance,
//  3. everything is torn down (only the state directories and the
//     proxy state file survive),
//  4. the deployment is rebuilt from the directories and continues
//     serving with all data intact.
//
// Run with: go run ./examples/production
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"ortoa"
	"ortoa/internal/netsim"
)

const (
	shards    = 2
	valueSize = 32
	records   = 200
)

func main() {
	dir, err := os.MkdirTemp("", "ortoa-production")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	keys := make([]ortoa.Keys, shards)
	for i := range keys {
		keys[i] = ortoa.GenerateKeys()
	}

	// --- Phase 1: deploy, load, serve ---
	fmt.Println("phase 1: deploy 2 shards with state directories, load, serve traffic")
	cluster, servers := deploy(dir, keys)
	data := map[string][]byte{}
	for i := 0; i < records; i++ {
		data[fmt.Sprintf("acct-%04d", i)] = []byte(fmt.Sprintf("balance=%06d", i*10))
	}
	if err := cluster.Load(data); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("acct-%04d", i)
		if i%5 == 0 {
			if err := cluster.Write(key, []byte(fmt.Sprintf("balance=%06d", 999))); err != nil {
				log.Fatal(err)
			}
		} else if _, err := cluster.Read(key); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("  served 50 operations across %d shards\n", cluster.Shards())

	// Persist proxy state, then shut everything down: servers stop
	// serving before their logs are detached.
	statePrefix := filepath.Join(dir, "proxy-state")
	if err := cluster.SaveState(statePrefix); err != nil {
		log.Fatal(err)
	}
	cluster.Close()
	for _, s := range servers {
		s.Close()
		if err := s.DetachWAL(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("  shut down: processes gone; state directories + proxy state on disk")

	// --- Phase 2: recover from the state directories and continue ---
	fmt.Println("phase 2: rebuild from the state directories")
	cluster2, servers2 := deploy(dir, keys)
	defer cluster2.Close()
	for i, s := range servers2 {
		fmt.Printf("  shard %d recovered %d records (checkpoint generation %d)\n", i, s.Records(), s.Generation())
	}
	if err := cluster2.LoadState(statePrefix); err != nil {
		log.Fatal(err)
	}

	v, err := cluster2.Read("acct-0005") // was overwritten pre-crash
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  acct-0005 after recovery: %q\n", v[:14])
	v, err = cluster2.Read("acct-0001") // untouched
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  acct-0001 after recovery: %q\n", v[:14])
	if err := cluster2.Write("acct-0100", []byte("balance=000042")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  writes accepted post-recovery — deployment fully restored")
	for _, s := range servers2 {
		s.Close()
		s.DetachWAL()
	}
}

// deploy builds `shards` proxy/server pairs whose stores live in state
// directories under dir and returns the sharded client plus server
// handles.
func deploy(dir string, keys []ortoa.Keys) (*ortoa.ShardedClient, []*ortoa.Server) {
	var clients []*ortoa.Client
	var servers []*ortoa.Server
	for i := 0; i < shards; i++ {
		server, err := ortoa.NewServer(ortoa.ServerConfig{
			Protocol:  ortoa.ProtocolLBL,
			ValueSize: valueSize,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := server.OpenState(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), ortoa.DurabilityOptions{}); err != nil {
			log.Fatal(err)
		}
		link := netsim.Listen(netsim.Oregon)
		go server.Serve(link)
		client, err := ortoa.NewClient(ortoa.ClientConfig{
			Protocol:  ortoa.ProtocolLBL,
			ValueSize: valueSize,
			Keys:      keys[i],
			Conns:     8,
		}, func() (net.Conn, error) { return link.Dial() })
		if err != nil {
			log.Fatal(err)
		}
		clients = append(clients, client)
		servers = append(servers, server)
	}
	sc, err := ortoa.NewShardedClient(clients)
	if err != nil {
		log.Fatal(err)
	}
	return sc, servers
}
