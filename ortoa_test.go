package ortoa

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
)

// deploy starts a server and returns a connected client for the
// given protocol over an in-memory link.
func deploy(t *testing.T, protocol Protocol, valueSize int, tweak func(*ClientConfig, *ServerConfig)) *Client {
	t.Helper()
	scfg := ServerConfig{Protocol: protocol, ValueSize: valueSize}
	ccfg := ClientConfig{Protocol: protocol, ValueSize: valueSize, Keys: GenerateKeys()}
	if tweak != nil {
		tweak(&ccfg, &scfg)
	}
	server, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.Listen(netsim.Loopback)
	go server.Serve(l)
	t.Cleanup(func() { server.Close() })

	client, err := NewClient(ccfg, func() (net.Conn, error) { return l.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if protocol == ProtocolTEE {
		if err := client.Provision(); err != nil {
			t.Fatal(err)
		}
	}
	return client
}

func allProtocols() []Protocol {
	return []Protocol{ProtocolLBL, ProtocolTEE, ProtocolFHE, ProtocolBaseline2RTT}
}

func fheTestTweak(ccfg *ClientConfig, scfg *ServerConfig) {
	opts := FHEOptions{RingDegree: 64, ModulusBits: 220}
	ccfg.FHE, scfg.FHE = opts, opts
}

func TestEndToEndAllProtocols(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(string(p), func(t *testing.T) {
			var tweak func(*ClientConfig, *ServerConfig)
			if p == ProtocolFHE {
				tweak = fheTestTweak
			}
			client := deploy(t, p, 16, tweak)
			if err := client.Load(map[string][]byte{
				"alice": []byte("balance=100"),
				"bob":   []byte("balance=250"),
			}); err != nil {
				t.Fatal(err)
			}
			got, err := client.Read("alice")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, []byte("balance=100")) {
				t.Errorf("Read(alice) = %q", got)
			}
			if err := client.Write("alice", []byte("balance=42")); err != nil {
				t.Fatal(err)
			}
			got, err = client.Read("alice")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, []byte("balance=42")) {
				t.Errorf("Read after Write = %q", got)
			}
			// Untouched key unaffected.
			got, err = client.Read("bob")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, []byte("balance=250")) {
				t.Errorf("Read(bob) = %q", got)
			}
		})
	}
}

// TestLBLVariantNames: a variant is the name of its core mode's row, the
// empty one is point-and-permute, and a name with no row is refused, the
// y = 4 pair's names included.
func TestLBLVariantNames(t *testing.T) {
	for v, want := range map[LBLVariant]core.LBLMode{
		LBLBasic: core.LBLBasic, LBLSpaceOpt: core.LBLSpaceOpt, LBLPointPermute: core.LBLPointPermute, "": core.LBLPointPermute,
	} {
		if m, err := v.mode(); err != nil || m != want {
			t.Errorf("variant %q: mode %v, %v; want %v", v, m, err, want)
		}
		if v != "" && want.String() != string(v) {
			t.Errorf("mode %d is named %q, its variant %q", want, want, v)
		}
	}
	for _, v := range []LBLVariant{"wide", "wide-point-permute", "point-permute(y=2)", "Basic"} {
		if _, err := v.mode(); err == nil {
			t.Errorf("variant %q accepted", v)
		}
	}
}

func TestLBLVariants(t *testing.T) {
	for _, v := range []LBLVariant{LBLBasic, LBLSpaceOpt, LBLPointPermute} {
		t.Run(string(v), func(t *testing.T) {
			client := deploy(t, ProtocolLBL, 8, func(c *ClientConfig, _ *ServerConfig) {
				c.LBLVariant = v
			})
			if err := client.Load(map[string][]byte{"k": []byte("12345678")}); err != nil {
				t.Fatal(err)
			}
			got, err := client.Read("k")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "12345678" {
				t.Errorf("Read = %q", got)
			}
		})
	}
}

func TestWritePadding(t *testing.T) {
	client := deploy(t, ProtocolLBL, 8, nil)
	if err := client.Load(map[string][]byte{"k": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	got, err := client.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("x"), make([]byte, 7)...)
	if !bytes.Equal(got, want) {
		t.Errorf("padded read = %v", got)
	}
	if err := client.Write("k", bytes.Repeat([]byte{1}, 9)); err == nil {
		t.Error("Write accepted oversize value")
	}
}

func TestConcurrentClients(t *testing.T) {
	client := deploy(t, ProtocolLBL, 8, nil)
	data := map[string][]byte{}
	for i := 0; i < 8; i++ {
		data[fmt.Sprintf("k%d", i)] = []byte{byte(i)}
	}
	if err := client.Load(data); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			for j := 0; j < 5; j++ {
				got, err := client.Read(key)
				if err != nil {
					t.Error(err)
					return
				}
				if got[0] != byte(i) {
					t.Errorf("Read(%s) = %v", key, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestServerStats(t *testing.T) {
	scfg := ServerConfig{Protocol: ProtocolLBL, ValueSize: 8}
	server, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	l := netsim.Listen(netsim.Loopback)
	go server.Serve(l)
	client, err := NewClient(ClientConfig{ValueSize: 8, Keys: GenerateKeys()},
		func() (net.Conn, error) { return l.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Load(map[string][]byte{"a": {1}, "b": {2}}); err != nil {
		t.Fatal(err)
	}
	if got := server.Records(); got != 2 {
		t.Errorf("Records = %d", got)
	}
	if server.StorageBytes() <= 0 {
		t.Error("StorageBytes not positive")
	}
}

// TestServerSnapshotRoundTrip restarts a TEE server from its state
// directory after a checkpoint: the replacement loads the snapshot, and
// the same keys decrypt it.
func TestServerSnapshotRoundTrip(t *testing.T) {
	scfg := ServerConfig{Protocol: ProtocolTEE, ValueSize: 8}
	dir := t.TempDir()
	server, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if err := server.OpenState(dir, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	l := netsim.Listen(netsim.Loopback)
	go server.Serve(l)
	keys := GenerateKeys()
	client, err := NewClient(ClientConfig{Protocol: ProtocolTEE, ValueSize: 8, Keys: keys},
		func() (net.Conn, error) { return l.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Provision(); err != nil {
		t.Fatal(err)
	}
	if err := client.Load(map[string][]byte{"k": []byte("persist!")}); err != nil {
		t.Fatal(err)
	}
	if err := server.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	server.Close()
	if err := server.DetachWAL(); err != nil {
		t.Fatal(err)
	}

	server2, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer server2.Close()
	if err := server2.OpenState(dir, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	defer server2.DetachWAL()
	if server2.Generation() != 1 || server2.Records() != 1 {
		t.Fatalf("restarted at generation %d with %d records, want the checkpoint's 1 and 1", server2.Generation(), server2.Records())
	}
	l2 := netsim.Listen(netsim.Loopback)
	go server2.Serve(l2)
	client2, err := NewClient(ClientConfig{Protocol: ProtocolTEE, ValueSize: 8, Keys: keys},
		func() (net.Conn, error) { return l2.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	if err := client2.Provision(); err != nil {
		t.Fatal(err)
	}
	got, err := client2.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist!" {
		t.Errorf("restored Read = %q", got)
	}
}

func TestFHESecretKeyReuse(t *testing.T) {
	opts := FHEOptions{RingDegree: 64, ModulusBits: 220}
	server, err := NewServer(ServerConfig{Protocol: ProtocolFHE, ValueSize: 8, FHE: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	l := netsim.Listen(netsim.Loopback)
	go server.Serve(l)

	keys := GenerateKeys()
	c1, err := NewClient(ClientConfig{Protocol: ProtocolFHE, ValueSize: 8, Keys: keys, FHE: opts},
		func() (net.Conn, error) { return l.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Load(map[string][]byte{"k": []byte("87654321")}); err != nil {
		t.Fatal(err)
	}
	keys.FHESecretKey = c1.FHESecretKey()
	c1.Close()

	// A second trusted party with the shared secret key can read.
	c2, err := NewClient(ClientConfig{Protocol: ProtocolFHE, ValueSize: 8, Keys: keys, FHE: opts},
		func() (net.Conn, error) { return l.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "87654321" {
		t.Errorf("shared-key Read = %q", got)
	}
}

func TestKeysSaveLoad(t *testing.T) {
	k := GenerateKeys()
	path := t.TempDir() + "/keys.json"
	if err := k.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.PRFKey, k.PRFKey) || !bytes.Equal(got.DataKey, k.DataKey) {
		t.Error("keys roundtrip mismatch")
	}
}

func TestLoadOrGenerateKeys(t *testing.T) {
	path := t.TempDir() + "/keys.json"
	k1, err := LoadOrGenerateKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := LoadOrGenerateKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k1.PRFKey, k2.PRFKey) {
		t.Error("second LoadOrGenerateKeys regenerated keys")
	}
}

func TestLoadKeysRejectsGarbage(t *testing.T) {
	path := t.TempDir() + "/bad.json"
	if err := (Keys{PRFKey: []byte{1}, DataKey: []byte{2}}).Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeys(path); err == nil {
		t.Error("LoadKeys accepted invalid key sizes")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Protocol: ProtocolLBL}); err == nil {
		t.Error("NewServer accepted zero ValueSize")
	}
	if _, err := NewServer(ServerConfig{Protocol: "quantum", ValueSize: 8}); err == nil {
		t.Error("NewServer accepted unknown protocol")
	}
	if _, err := NewClient(ClientConfig{ValueSize: 8}, nil); err == nil {
		t.Error("NewClient accepted empty keys")
	}
	if _, err := NewClient(ClientConfig{ValueSize: 8, Keys: Keys{PRFKey: []byte{1}, DataKey: []byte{2}}}, nil); err == nil {
		t.Error("NewClient accepted bad key sizes")
	}
}

func TestProvisionOnlyForTEE(t *testing.T) {
	client := deploy(t, ProtocolLBL, 8, nil)
	if err := client.Provision(); err == nil {
		t.Error("Provision succeeded on LBL client")
	}
}
