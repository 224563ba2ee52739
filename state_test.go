package ortoa

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"ortoa/internal/netsim"
)

// TestLBLProxyRestart is the operational scenario counter persistence
// exists for: an LBL proxy restarts, restores its counters, and keeps
// serving against the server's existing records.
func TestLBLProxyRestart(t *testing.T) {
	keys := GenerateKeys()
	server, err := NewServer(ServerConfig{Protocol: ProtocolLBL, ValueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	l := netsim.Listen(netsim.Loopback)
	go server.Serve(l)
	dial := func() (net.Conn, error) { return l.Dial() }

	c1, err := NewClient(ClientConfig{Protocol: ProtocolLBL, ValueSize: 8, Keys: keys}, dial)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Load(map[string][]byte{"a": []byte("initial!"), "b": []byte("other..!")}); err != nil {
		t.Fatal(err)
	}
	// Advance counters with a few accesses.
	for i := 0; i < 5; i++ {
		if _, err := c1.Read("a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Write("a", []byte("updated!")); err != nil {
		t.Fatal(err)
	}
	statePath := t.TempDir() + "/proxy.state"
	if err := c1.SaveState(statePath); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Restart: a fresh proxy with the same keys but no counters would
	// desynchronize; with LoadState it continues seamlessly.
	c2, err := NewClient(ClientConfig{Protocol: ProtocolLBL, ValueSize: 8, Keys: keys}, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.LoadState(statePath); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Read("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("updated!")) {
		t.Errorf("read after restart = %q", got)
	}
	if err := c2.Write("b", []byte("again..!")); err != nil {
		t.Fatal(err)
	}
	got, _ = c2.Read("b")
	if !bytes.Equal(got, []byte("again..!")) {
		t.Errorf("write after restart = %q", got)
	}
}

// TestLBLProxyRestartWithoutStateRebases: a proxy resumed without its
// counters starts every key at 0, behind the server's records. The
// server answers its first access stale with the labels the record
// holds, and the proxy rebases to them and reads the current value.
func TestLBLProxyRestartWithoutStateRebases(t *testing.T) {
	keys := GenerateKeys()
	server, err := NewServer(ServerConfig{Protocol: ProtocolLBL, ValueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	l := netsim.Listen(netsim.Loopback)
	go server.Serve(l)
	dial := func() (net.Conn, error) { return l.Dial() }

	c1, _ := NewClient(ClientConfig{Protocol: ProtocolLBL, ValueSize: 8, Keys: keys}, dial)
	c1.Load(map[string][]byte{"a": []byte("value123")})
	for i := 0; i < 3; i++ {
		c1.Read("a")
	}
	c1.Close()

	c2, _ := NewClient(ClientConfig{Protocol: ProtocolLBL, ValueSize: 8, Keys: keys}, dial)
	defer c2.Close()
	if got, err := c2.Read("a"); err != nil || !bytes.Equal(got, []byte("value123")) {
		t.Errorf("read without counters = %q, %v; want the stored value", got, err)
	}
}

func TestSaveStateNonLBLIsNoop(t *testing.T) {
	client := deploy(t, ProtocolTEE, 8, nil)
	path := t.TempDir() + "/state"
	if err := client.SaveState(path); err != nil {
		t.Fatal(err)
	}
	if err := client.LoadState(path); err != nil {
		t.Fatal(err)
	}
}

func TestReadBatch(t *testing.T) {
	client := deploy(t, ProtocolLBL, 8, nil)
	data := map[string][]byte{}
	var keys []string
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		data[k] = []byte{byte(i)}
		keys = append(keys, k)
	}
	if err := client.Load(data); err != nil {
		t.Fatal(err)
	}
	pairs, err := client.ReadBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 20 {
		t.Fatalf("batch returned %d pairs", len(pairs))
	}
	for i, p := range pairs {
		if p.Key != keys[i] {
			t.Errorf("pair %d key = %q, want %q (order broken)", i, p.Key, keys[i])
		}
		if p.Value[0] != byte(i) {
			t.Errorf("pair %d value = %v", i, p.Value)
		}
	}
}

func TestReadBatchPropagatesErrors(t *testing.T) {
	client := deploy(t, ProtocolLBL, 8, nil)
	client.Load(map[string][]byte{"present": []byte("x")})
	if _, err := client.ReadBatch([]string{"present", "missing"}); err == nil {
		t.Error("batch with missing key succeeded")
	}
}

func TestWriteBatch(t *testing.T) {
	client := deploy(t, ProtocolLBL, 8, nil)
	data := map[string][]byte{"a": {1}, "b": {2}, "c": {3}}
	if err := client.Load(data); err != nil {
		t.Fatal(err)
	}
	updates := map[string][]byte{"a": {10}, "b": {20}, "c": {30}}
	if err := client.WriteBatch(updates); err != nil {
		t.Fatal(err)
	}
	for k, want := range updates {
		got, err := client.Read(k)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Errorf("after batch write, %s = %v", k, got)
		}
	}
}

func TestReadRange(t *testing.T) {
	client := deploy(t, ProtocolLBL, 8, nil)
	data := map[string][]byte{}
	for i := 0; i < 30; i++ {
		data[fmt.Sprintf("acct-%03d", i)] = []byte{byte(i)}
	}
	if err := client.Load(data); err != nil {
		t.Fatal(err)
	}

	pairs, err := client.ReadRange("acct-010", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("range returned %d pairs", len(pairs))
	}
	for i, p := range pairs {
		want := fmt.Sprintf("acct-%03d", 10+i)
		if p.Key != want {
			t.Errorf("range pair %d = %q, want %q", i, p.Key, want)
		}
		if p.Value[0] != byte(10+i) {
			t.Errorf("range pair %d value = %v", i, p.Value)
		}
	}

	// Range starting between keys snaps to the next key.
	pairs, err = client.ReadRange("acct-0105", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || pairs[0].Key != "acct-011" {
		t.Errorf("mid-range start = %+v", pairs)
	}

	// Range past the end truncates.
	pairs, err = client.ReadRange("acct-028", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Errorf("tail range returned %d pairs, want 2", len(pairs))
	}

	// Zero/negative limits are empty.
	if pairs, _ := client.ReadRange("acct-000", 0); pairs != nil {
		t.Error("zero-limit range returned pairs")
	}
}

func TestKeysDirectory(t *testing.T) {
	client := deploy(t, ProtocolLBL, 8, nil)
	client.Load(map[string][]byte{"b": {1}, "a": {2}})
	client.Load(map[string][]byte{"c": {3}, "a": {9}}) // overlap deduped
	keys := client.Keys()
	want := []string{"a", "b", "c"}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("Keys[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
}
