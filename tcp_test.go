package ortoa

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
)

// TestRealTCPDeployment runs the full three-tier deployment —
// end-user → proxy → server — over actual TCP sockets on loopback,
// exercising everything the netsim-based tests exercise plus the real
// network stack the binaries use.
func TestRealTCPDeployment(t *testing.T) {
	keys := GenerateKeys()

	// Untrusted server.
	server, err := NewServer(ServerConfig{Protocol: ProtocolLBL, ValueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	serverLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(serverLn)
	serverAddr := serverLn.Addr().String()

	// Trusted proxy.
	client, err := NewClient(ClientConfig{
		Protocol: ProtocolLBL, ValueSize: 32, Keys: keys, Conns: 4,
	}, func() (net.Conn, error) { return net.Dial("tcp", serverAddr) })
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := map[string][]byte{}
	for i := 0; i < 32; i++ {
		data[fmt.Sprintf("acct-%03d", i)] = []byte(fmt.Sprintf("balance=%d", i*100))
	}
	if err := client.Load(data); err != nil {
		t.Fatal(err)
	}

	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go client.ServeProxy(proxyLn)
	proxyAddr := proxyLn.Addr().String()

	// End users (no secrets), concurrent.
	users, err := DialProxy(func() (net.Conn, error) { return net.Dial("tcp", proxyAddr) }, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer users.Close()

	var wg sync.WaitGroup
	for u := 0; u < 8; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			key := fmt.Sprintf("acct-%03d", u)
			got, err := users.Read(key)
			if err != nil {
				t.Errorf("user %d read: %v", u, err)
				return
			}
			want := fmt.Sprintf("balance=%d", u*100)
			if !bytes.HasPrefix(got, []byte(want)) {
				t.Errorf("user %d read %q, want prefix %q", u, got, want)
				return
			}
			newVal := make([]byte, 32)
			copy(newVal, fmt.Sprintf("balance=%d", u*100+1))
			if err := users.Write(key, newVal); err != nil {
				t.Errorf("user %d write: %v", u, err)
			}
		}(u)
	}
	wg.Wait()

	got, err := users.Read("acct-003")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("balance=301")) {
		t.Errorf("final read = %q", got)
	}
}

// TestTCPServerCrashRestartWithWAL stops the server with no checkpoint
// taken and restarts it from its state directory: the records come back
// from the write-ahead log.
func TestTCPServerCrashRestartWithWAL(t *testing.T) {
	keys := GenerateKeys()
	stateDir := t.TempDir() + "/server"
	statePath := t.TempDir() + "/proxy.state"

	run := func(load bool, fn func(c *Client)) {
		server, err := NewServer(ServerConfig{Protocol: ProtocolLBL, ValueSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := server.OpenState(stateDir, DurabilityOptions{}); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go server.Serve(ln)
		addr := ln.Addr().String()

		client, err := NewClient(ClientConfig{Protocol: ProtocolLBL, ValueSize: 16, Keys: keys},
			func() (net.Conn, error) { return net.Dial("tcp", addr) })
		if err != nil {
			t.Fatal(err)
		}
		if load {
			if err := client.Load(map[string][]byte{"k": []byte("first-value")}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := client.LoadState(statePath); err != nil {
				t.Fatal(err)
			}
		}
		fn(client)
		if err := client.SaveState(statePath); err != nil {
			t.Fatal(err)
		}
		client.Close()
		server.Close()
		if err := server.DetachWAL(); err != nil {
			t.Fatal(err)
		}
		ln.Close()
	}

	run(true, func(c *Client) {
		if err := c.Write("k", []byte("updated-value")); err != nil {
			t.Fatal(err)
		}
	})
	run(false, func(c *Client) {
		got, err := c.Read("k")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, []byte("updated-value")) {
			t.Errorf("after WAL recovery, read = %q", got)
		}
	})
}
