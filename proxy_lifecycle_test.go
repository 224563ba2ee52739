package ortoa

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

// newProxyDeployment builds server ← client over serverLink, loads n
// keys ("key-000"… with value byte 0 = index), and returns the client
// plus a netsim listener for its proxy front end (not yet served).
func newProxyDeployment(t *testing.T, n, valueSize int, serverLink netsim.Link) (*Client, *netsim.Listener) {
	t.Helper()
	server, err := NewServer(ServerConfig{Protocol: ProtocolLBL, ValueSize: valueSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	link := netsim.Listen(serverLink)
	go server.Serve(link)
	client, err := NewClient(ClientConfig{Protocol: ProtocolLBL, ValueSize: valueSize, Keys: GenerateKeys(), Conns: 4},
		func() (net.Conn, error) { return link.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	data := map[string][]byte{}
	for i := 0; i < n; i++ {
		v := make([]byte, valueSize)
		v[0] = byte(i)
		data[fmt.Sprintf("key-%03d", i)] = v
	}
	if err := client.Load(data); err != nil {
		t.Fatal(err)
	}
	return client, netsim.Listen(netsim.Loopback)
}

// TestServeProxyShutdown is the regression test for the retained-
// server bug: Close must stop a running ServeProxy — the listener
// closes, ServeProxy returns, and end-user requests start failing —
// rather than leaking the accept loop and its connections.
func TestServeProxyShutdown(t *testing.T) {
	client, proxyLn := newProxyDeployment(t, 4, 8, netsim.Loopback)

	served := make(chan error, 1)
	go func() { served <- client.ServeProxy(proxyLn) }()

	users, err := DialProxy(proxyLn.Dial, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer users.Close()
	if v, err := users.Read("key-001"); err != nil || v[0] != 1 {
		t.Fatalf("read before close = %v, %v", v, err)
	}

	if err := client.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, transport.ErrClosed) {
			t.Errorf("ServeProxy returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeProxy still running after Close — proxy server leaked")
	}
	if _, err := users.Read("key-001"); err == nil {
		t.Error("read after close succeeded, want error")
	}

	// A front end started after Close must refuse immediately.
	if err := client.ServeProxy(netsim.Listen(netsim.Loopback)); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("ServeProxy after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := client.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestCloseDrainsInFlightProxyAccess checks the graceful half of
// shutdown: end-user accesses already being proxied when Close is
// called complete and are answered, not cut mid-response — the one whose
// round is in the air, and the ones held behind it for the same key,
// which only leave, folded into one access, once that round is back.
func TestCloseDrainsInFlightProxyAccess(t *testing.T) {
	// A real RTT to the server keeps the access in flight long enough
	// for the others to be held behind it and for Close to overlap all.
	client, proxyLn := newProxyDeployment(t, 4, 8, netsim.Link{RTT: 60 * time.Millisecond})
	go client.ServeProxy(proxyLn)

	users, err := DialProxy(proxyLn.Dial, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer users.Close()

	const sessions = 3
	type result struct {
		v   []byte
		err error
	}
	res := make(chan result, sessions)
	_, _, before := client.TrafficStats()
	for s := 0; s < sessions; s++ {
		go func() {
			v, err := users.Read("key-002")
			res <- result{v, err}
		}()
	}
	// Let the requests reach the proxy handlers, then shut down while
	// the first's server round trip is still in the air.
	time.Sleep(15 * time.Millisecond)
	if err := client.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for s := 0; s < sessions; s++ {
		r := <-res
		if r.err != nil {
			t.Fatalf("in-flight read was cut by Close: %v", r.err)
		}
		if r.v[0] != 2 {
			t.Errorf("in-flight read = %v, want first byte 2", r.v)
		}
	}
	if _, _, after := client.TrafficStats(); after-before != 2 {
		t.Errorf("%d reads of one key cost %d server RPCs, want 2: one in the air at Close and one fold of those held behind it", sessions, after-before)
	}
}

// TestServeProxyHoldsBusyKey runs end users through a plain front end,
// no options: every session gets its own answer, and sessions that
// arrive for one key while its round is in flight share the next
// round trip.
func TestServeProxyHoldsBusyKey(t *testing.T) {
	const n = 8
	const valueSize = 8
	// A real RTT to the server keeps a key's round in flight long enough
	// for the other sessions to arrive behind it.
	client, proxyLn := newProxyDeployment(t, n, valueSize, netsim.Link{RTT: 20 * time.Millisecond})
	go client.ServeProxy(proxyLn)

	users, err := DialProxy(proxyLn.Dial, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer users.Close()

	var wg sync.WaitGroup
	for u := 0; u < n; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%03d", u)
			v, err := users.Read(key)
			if err != nil {
				t.Errorf("user %d read: %v", u, err)
				return
			}
			if v[0] != byte(u) {
				t.Errorf("user %d read %v, want first byte %d", u, v, u)
				return
			}
			nv := make([]byte, valueSize)
			nv[0] = byte(u + 100)
			if err := users.Write(key, nv); err != nil {
				t.Errorf("user %d write: %v", u, err)
				return
			}
			v, err = users.Read(key)
			if err != nil {
				t.Errorf("user %d reread: %v", u, err)
				return
			}
			if !bytes.Equal(v, nv) {
				t.Errorf("user %d reread %v, want %v", u, v, nv)
			}
		}(u)
	}
	wg.Wait()

	_, _, before := client.TrafficStats()
	for u := 0; u < n; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if v, err := users.Read("key-000"); err != nil || v[0] != 100 {
				t.Errorf("user %d read of the shared key = %v, %v; want first byte 100", u, v, err)
			}
		}(u)
	}
	wg.Wait()
	if _, _, after := client.TrafficStats(); after-before >= n {
		t.Errorf("%d concurrent reads of one key cost %d server RPCs, want fewer: those held for the key leave folded into one access", n, after-before)
	}
}

// TestConcurrentSaveState is the regression test for the racing-save
// bug: WriteFileAtomic's temp name is deterministic, so unserialized
// concurrent saves of one path (periodic saver vs shutdown save)
// corrupted or lost snapshots. All concurrent saves must succeed and
// leave a loadable snapshot.
func TestConcurrentSaveState(t *testing.T) {
	client, _ := newProxyDeployment(t, 8, 8, netsim.Loopback)
	// Advance some counters so the snapshot has content.
	for i := 0; i < 8; i++ {
		if _, err := client.Read(fmt.Sprintf("key-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}

	path := t.TempDir() + "/counters.state"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := client.SaveState(path); err != nil {
					t.Errorf("concurrent save: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := client.LoadState(path); err != nil {
		t.Fatalf("snapshot unreadable after concurrent saves: %v", err)
	}
	if v, err := client.Read("key-003"); err != nil || v[0] != 3 {
		t.Fatalf("read after reload = %v, %v", v, err)
	}
}
