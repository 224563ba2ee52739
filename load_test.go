package ortoa

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
	"ortoa/internal/workload"
)

// TestLoadReadsBackEveryValue: Load builds records on every core for
// each protocol, and every value reads back. LBL loads 256 values of
// 160 B, 2.6 MB of records, so its load spans several batches.
func TestLoadReadsBackEveryValue(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(string(p), func(t *testing.T) {
			n, size := 32, 16
			var tweak func(*ClientConfig, *ServerConfig)
			switch p {
			case ProtocolLBL:
				n, size = 256, 160
			case ProtocolFHE:
				tweak = fheTestTweak
			}
			client := deploy(t, p, size, tweak)
			data := make(map[string][]byte, n)
			for i := 0; i < n; i++ {
				data[workload.Key(i)] = []byte(fmt.Sprintf("v%d", i))
			}
			if err := client.Load(data); err != nil {
				t.Fatal(err)
			}
			for k, v := range data {
				got, err := client.Read(k)
				if err != nil {
					t.Fatalf("Read(%s): %v", k, err)
				}
				if want := append(bytes.Clone(v), make([]byte, size-len(v))...); !bytes.Equal(got, want) {
					t.Fatalf("Read(%s) = %q, want %q", k, got, want)
				}
			}
			if got := client.Keys(); len(got) != n {
				t.Errorf("Keys() has %d keys, want %d", len(got), n)
			}
		})
	}
}

// TestLoadFailedBatch: a server that refuses one batch fails Load with
// its error once the batches in flight are answered. No batch is sent
// after the failure is seen, and Keys is unchanged.
func TestLoadFailedBatch(t *testing.T) {
	// Four connections, two batches in flight on each.
	const conns, inFlight = 4, 8
	ts := transport.NewServer()
	var frames atomic.Int64
	release := make(chan struct{})
	ts.Handle(core.MsgLoad, func(context.Context, []byte) ([]byte, error) {
		switch frames.Add(1) {
		case 1: // the first Load's one batch
			return nil, nil
		case 2:
			// Refuse once every slot is taken, so that the slot this
			// refusal frees is the only one a further batch could use.
			for deadline := time.Now().Add(10 * time.Second); frames.Load() < 1+inFlight; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("%d batches in flight, want %d", frames.Load()-1, inFlight)
					break
				}
			}
			return nil, errors.New("disk full")
		}
		<-release
		return nil, nil
	})
	l := netsim.Listen(netsim.Loopback)
	go ts.Serve(l)
	t.Cleanup(func() { ts.Close() })
	client, err := NewClient(ClientConfig{Protocol: ProtocolLBL, ValueSize: 160, Keys: GenerateKeys(), Conns: conns},
		func() (net.Conn, error) { return l.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if err := client.Load(map[string][]byte{"a": []byte("x")}); err != nil {
		t.Fatal(err)
	}

	// 2,000 values of 160 B are 20 batches.
	data := make(map[string][]byte, 2000)
	for i := 0; i < 2000; i++ {
		data[workload.Key(i)] = []byte("y")
	}
	done := make(chan error, 1)
	go func() { done <- client.Load(data) }()
	// The held batches keep their slots until released. Release them once
	// the refusal has had ample time to reach the client, or they would
	// free slots that a Load yet to see the failure may rightly use.
	for deadline := time.Now().Add(20 * time.Second); frames.Load() < 1+inFlight; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d batches in flight, want %d", frames.Load()-1, inFlight)
		}
	}
	time.Sleep(200 * time.Millisecond)
	close(release)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Load returned %v, want the server's refusal", err)
	}
	if sent := frames.Load() - 1; sent != inFlight {
		t.Errorf("the failing Load sent %d batches, want the %d in flight when it failed", sent, inFlight)
	}
	if got := client.Keys(); !slices.Equal(got, []string{"a"}) {
		t.Errorf("Keys() = %d keys after the failed Load, want [a]", len(got))
	}
}
