package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ortoa"
	"ortoa/internal/netsim"
)

// TestShutdownKeepsAcknowledgedWrites drives the SIGTERM sequence with
// writers running through it, on a server journaling durable-on-ack the
// way `-state D -fsync group-commit` does: a server restarted from the
// state directory must hold every write that was acknowledged, however
// late. Detaching the log before serving has stopped loses the writes
// acknowledged in between.
func TestShutdownKeepsAcknowledgedWrites(t *testing.T) {
	const writers, valueSize = 8, 8
	dir := t.TempDir()

	var listener atomic.Pointer[netsim.Listener] // whichever server is up
	start := func() *ortoa.Server {
		t.Helper()
		server, err := ortoa.NewServer(ortoa.ServerConfig{Protocol: ortoa.ProtocolLBL, ValueSize: valueSize})
		if err != nil {
			t.Fatal(err)
		}
		if err := server.OpenState(dir, ortoa.DurabilityOptions{Fsync: ortoa.FsyncGroupCommit}); err != nil {
			t.Fatal(err)
		}
		l := netsim.Listen(netsim.Loopback)
		listener.Store(l)
		go server.Serve(l) //nolint:errcheck // returns on Close
		return server
	}
	server := start()
	client, err := ortoa.NewClient(ortoa.ClientConfig{Protocol: ortoa.ProtocolLBL, ValueSize: valueSize, Keys: ortoa.GenerateKeys(), Conns: writers},
		func() (net.Conn, error) { return listener.Load().Dial() })
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	data := map[string][]byte{}
	for w := 0; w < writers; w++ {
		data[fmt.Sprintf("key-%d", w)] = make([]byte, valueSize)
	}
	if err := client.Load(data); err != nil {
		t.Fatal(err)
	}

	// Each writer owns a key and writes versions 1, 2, … until one fails.
	var acked [writers]atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := uint64(1); ; v++ {
				if client.Write(fmt.Sprintf("key-%d", w), binary.BigEndian.AppendUint64(nil, v)) != nil {
					return
				}
				acked[w].Store(v)
			}
		}(w)
	}
	for acked[0].Load() < 20 { // every writer is well under way
		time.Sleep(time.Millisecond)
	}
	shutdown(server)
	wg.Wait()

	server = start()
	defer server.Close()
	for w := 0; w < writers; w++ {
		key, want := fmt.Sprintf("key-%d", w), acked[w].Load()
		var got []byte
		for attempt := 0; attempt < 100; attempt++ { // the pool redials; the cut write's outcome is settled
			if got, err = client.Read(key); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("%s does not read after the restart (last acknowledged version %d): %v", key, want, err)
		}
		// The write that failed may have been applied: its outcome was unknown.
		if v := binary.BigEndian.Uint64(got); v != want && v != want+1 {
			t.Errorf("%s restarted at version %d, want the last acknowledged %d (or the one cut after it)", key, v, want)
		}
	}
}

// TestCheckFlags: a flag whose partner is missing would have no effect,
// so the server refuses it before it opens state or listens.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		refuse string // a fragment of the refusal; "" when the flags pass
	}{
		{nil, ""},
		{[]string{"-max-inflight", "8"}, ""},
		{[]string{"-max-inflight", "8", "-max-queue", "8", "-retry-after", "50ms"}, ""},
		{[]string{"-max-queue", "8"}, "require -max-inflight"},
		{[]string{"-retry-after", "50ms"}, "require -max-inflight"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			flag.VisitAll(func(f *flag.Flag) {
				if !strings.HasPrefix(f.Name, "test.") {
					f.Value.Set(f.DefValue) //nolint:errcheck // a default always parses
				}
			})
			if err := flag.CommandLine.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := checkFlags()
			switch {
			case tc.refuse == "" && err != nil:
				t.Errorf("refused: %v", err)
			case tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)):
				t.Errorf("got %v, want the refusal %q", err, tc.refuse)
			}
		})
	}
}
