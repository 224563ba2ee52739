package transport_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"ortoa"
	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// TestHandlersKeepNoPayload holds every handler a deployment registers —
// the loader, LBL, TEE (attestation and provisioning too), FHE and
// baseline accesses, and the proxy front end — to HandlerFunc's contract
// on servers whose released request buffers are overwritten
// (poison_test.go). Per protocol it loads a keyspace, then writes and
// reads it back through the client and through the front end, with
// every key's value checked after each round: a handler that kept its
// payload — a stored record, a map key or a response aliasing the
// request, a continuation frame read after the next was asked for —
// reads the poison where its request was. Each link drops responses
// (BlackholeProb) during the accesses, so retries are answered from the
// at-most-once caches and a cached response that aliased its request
// is replayed as poison. Under LBL a second client cuts every request
// into frames, so the continuation frames go back at StreamReader.Next
// while the access still runs.
func TestHandlersKeepNoPayload(t *testing.T) {
	const valueSize = 16
	fheOpts := ortoa.FHEOptions{RingDegree: 64, ModulusBits: 220}
	for _, p := range []ortoa.Protocol{ortoa.ProtocolLBL, ortoa.ProtocolTEE, ortoa.ProtocolFHE, ortoa.ProtocolBaseline2RTT} {
		t.Run(string(p), func(t *testing.T) {
			reg := obs.NewRegistry()
			srv, err := ortoa.NewServer(ortoa.ServerConfig{Protocol: p, ValueSize: valueSize, FHE: fheOpts, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			// One dropped response in three while active, four in all.
			serverFaults := &netsim.FaultPlan{Seed: 1, BlackholeProb: 0.3, MaxFaults: 4}
			serverFaults.SetActive(false)
			ln := netsim.Listen(netsim.Link{Fault: serverFaults})
			go srv.Serve(ln) //nolint:errcheck // returns on Close
			t.Cleanup(func() { srv.Close() })

			keys := ortoa.GenerateKeys()
			newClient := func(streamChunk int) *ortoa.Client {
				c, err := ortoa.NewClient(ortoa.ClientConfig{
					Protocol: p, ValueSize: valueSize, Keys: keys, FHE: fheOpts, Conns: 2,
					CallTimeout: 100 * time.Millisecond, RetryAttempts: 8, StreamChunk: streamChunk,
				}, ln.Dial)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				if p == ortoa.ProtocolTEE {
					if err := c.Provision(); err != nil {
						t.Fatal(err)
					}
				}
				return c
			}
			client := newClient(0)

			want := make(map[string][]byte)
			for i := 0; i < 12; i++ {
				want[fmt.Sprintf("key-%02d", i)] = bytes.Repeat([]byte{byte(i + 1)}, valueSize)
			}
			if err := client.Load(want); err != nil {
				t.Fatal(err)
			}
			check := func(when string, read func(string) ([]byte, error)) {
				t.Helper()
				for k, v := range want {
					got, err := read(k)
					if err != nil {
						t.Fatalf("%s: read %s: %v", when, k, err)
					}
					if !bytes.Equal(got, v) {
						t.Fatalf("%s: %s = %x, want %x", when, k, got, v)
					}
				}
			}
			check("after the load", client.Read)

			frontFaults := &netsim.FaultPlan{Seed: 2, BlackholeProb: 0.3, MaxFaults: 4}
			fl := netsim.Listen(netsim.Link{Fault: frontFaults})
			go client.ServeProxy(fl) //nolint:errcheck // returns on Close
			// An end user that retries the responses the front end drops;
			// a ProxyClient makes one attempt.
			frontRPC, err := transport.DialOptions(fl.Dial, transport.Options{
				PoolSize: 1, CallTimeout: 100 * time.Millisecond, Retry: transport.RetryPolicy{Attempts: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { frontRPC.Close() })
			front := core.NewRemoteAccessor(frontRPC)
			frontWrite := func(key string, v []byte) error {
				_, err := front.AccessContext(context.Background(), core.OpWrite, key, v)
				return err
			}
			frontRead := func(key string) ([]byte, error) {
				v, err := front.AccessContext(context.Background(), core.OpRead, key, nil)
				return v, err
			}

			type writer struct {
				name  string
				write func(string, []byte) error
				drops bool // whether the server drops responses meanwhile
			}
			writers := []writer{{"client", client.Write, true}, {"front end", frontWrite, true}}
			if p == ortoa.ProtocolLBL {
				// A request cut into frames is never retried, so the server
				// drops none of its answers.
				writers = append(writers, writer{"streamed client", newClient(256).Write, false})
			}
			round := byte(0x10)
			for _, w := range writers {
				serverFaults.SetActive(w.drops)
				for k := range want {
					round++
					v := bytes.Repeat([]byte{round}, valueSize)
					if err := w.write(k, v); err != nil {
						t.Fatalf("%s write %s: %v", w.name, k, err)
					}
					want[k] = v
				}
				check("after the "+w.name+"'s writes", client.Read)
				check("after the "+w.name+"'s writes, through the front end", frontRead)
			}
			if s, f := serverFaults.Stats().Blackholes, frontFaults.Stats().Blackholes; s == 0 || f == 0 {
				t.Errorf("responses dropped: %d by the server, %d by the front end; want some of each", s, f)
			}
			if hits := reg.Counter("ortoa_transport_server_dedup_hits_total", "").Value(); hits == 0 {
				t.Error("no retry was answered from the server's at-most-once cache")
			}
		})
	}
}
