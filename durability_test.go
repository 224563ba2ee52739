package ortoa

import (
	"bytes"
	"net"
	"os"
	"strings"
	"testing"

	"ortoa/internal/netsim"
)

// TestDurableServerRestart is the operational scenario the durability
// API exists for: a server journaling under group commit is killed
// without a clean shutdown (no DetachWAL), a replacement recovers the
// state directory, and a proxy resuming from a stale counter snapshot
// reconciles and keeps serving — with no acknowledged write lost.
func TestDurableServerRestart(t *testing.T) {
	dir := t.TempDir() + "/state"
	keys := GenerateKeys()
	open := func() (*Server, *netsim.Listener) {
		t.Helper()
		server, err := NewServer(ServerConfig{Protocol: ProtocolLBL, ValueSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := server.OpenState(dir, DurabilityOptions{Fsync: FsyncGroupCommit}); err != nil {
			t.Fatal(err)
		}
		l := netsim.Listen(netsim.Loopback)
		go server.Serve(l)
		return server, l
	}

	s1, l1 := open()
	dial1 := func() (net.Conn, error) { return l1.Dial() }
	c1, err := NewClient(ClientConfig{Protocol: ProtocolLBL, ValueSize: 8, Keys: keys}, dial1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Load(map[string][]byte{"a": []byte("initial!"), "b": []byte("other..!")}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if gen := s1.Generation(); gen != 1 {
		t.Fatalf("generation after checkpoint = %d, want 1", gen)
	}
	statePath := t.TempDir() + "/proxy.state"
	if err := c1.SaveState(statePath); err != nil {
		t.Fatal(err)
	}
	// Writes after the snapshot: acknowledged, so they must survive the
	// crash, but the saved counters don't know about them.
	if err := c1.Write("a", []byte("updated!")); err != nil {
		t.Fatal(err)
	}
	if err := c1.Write("a", []byte("latest..")); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	s1.Close() // kill: no DetachWAL, no snapshot save

	s2, l2 := open()
	defer s2.Close()
	if s2.Records() != 2 {
		t.Fatalf("recovered %d records, want 2", s2.Records())
	}
	dial2 := func() (net.Conn, error) { return l2.Dial() }
	// The stale snapshot trails by the two writes: the first read rebases.
	c2, err := NewClient(ClientConfig{Protocol: ProtocolLBL, ValueSize: 8, Keys: keys}, dial2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.LoadState(statePath); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Read("a")
	if err != nil {
		t.Fatalf("read after crash recovery: %v", err)
	}
	if !bytes.Equal(got, []byte("latest..")) {
		t.Errorf("read after crash recovery = %q, want the last acknowledged write", got)
	}
	if err := c2.Write("b", []byte("again..!")); err != nil {
		t.Fatal(err)
	}
	if got, _ := c2.Read("b"); !bytes.Equal(got, []byte("again..!")) {
		t.Errorf("write after recovery = %q", got)
	}
}

// TestSaveStateAtomic: SaveState must replace an existing snapshot via
// temp-file rename, leaving no partial state or stray temp files.
func TestSaveStateAtomic(t *testing.T) {
	client := deploy(t, ProtocolLBL, 8, nil)
	if err := client.Load(map[string][]byte{"k": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/proxy.state"
	for i := 0; i < 3; i++ {
		if _, err := client.Read("k"); err != nil {
			t.Fatal(err)
		}
		if err := client.SaveState(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "proxy.state" {
			t.Errorf("stray file %q after SaveState (non-atomic temp left behind)", e.Name())
		}
	}
	if err := client.LoadState(path); err != nil {
		t.Errorf("reloading saved state: %v", err)
	}
}

// TestOpenStateRejectsBadPolicy guards the config surface.
func TestOpenStateRejectsBadPolicy(t *testing.T) {
	server, err := NewServer(ServerConfig{Protocol: ProtocolLBL, ValueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	err = server.OpenState(t.TempDir()+"/s", DurabilityOptions{Fsync: "sometimes"})
	if err == nil || !strings.Contains(err.Error(), "unknown fsync policy") {
		t.Errorf("OpenState with bad policy = %v", err)
	}
}
