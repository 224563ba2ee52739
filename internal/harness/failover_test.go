package harness

import (
	"strings"
	"testing"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// TestFailoverQuick runs the failover experiment end to end at
// unit-test scale. The drill self-audits (zero lost acked writes,
// label-schedule consistency across the kill, zero shape
// violations), so a nil error is the assertion.
func TestFailoverQuick(t *testing.T) {
	tbl, err := Failover(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// kill + audit.
	if len(tbl.Rows) != 2 {
		t.Fatalf("failover table has %d rows, want 2", len(tbl.Rows))
	}
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "audit passed") {
			found = true
		}
	}
	if !found {
		t.Errorf("failover notes missing audit confirmation: %v", tbl.Notes)
	}
}

// newFailoverCluster builds a small 3-proxy deployment for the
// lifecycle tests below.
func newFailoverCluster(t *testing.T, reg *obs.Registry) *Cluster {
	t.Helper()
	data := map[string][]byte{}
	for _, k := range []string{"fa", "fb", "fc", "fd", "fe", "ff"} {
		data[k] = []byte("0123456789abcdef")
	}
	cluster, err := NewCluster(Config{
		System:    SystemLBL,
		Link:      netsim.Loopback,
		ValueSize: 16,
		Data:      data,
		LBLMode:   core.LBLPointPermute,
		Proxies:   3,
		Transport: transport.Options{
			CallTimeout:      time.Second,
			ReconnectBackoff: time.Millisecond,
		},
		ConnsPerShard: 2,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster
}

// TestRestartProxyStableIdentity crash-kills and recovers one proxy
// behind its listener identity: accesses keep succeeding throughout,
// and the reborn proxy rebases each key on its first access.
func TestRestartProxyStableIdentity(t *testing.T) {
	reg := obs.NewRegistry()
	cluster := newFailoverCluster(t, reg)
	rw := func(tag string) {
		for _, k := range []string{"fa", "fb", "fc", "fd", "fe", "ff"} {
			if _, _, err := cluster.Access(core.OpWrite, k, []byte(tag+"123456789abc")); err != nil {
				t.Fatalf("write %q (%s): %v", k, tag, err)
			}
			got, _, err := cluster.Access(core.OpRead, k, nil)
			if err != nil {
				t.Fatalf("read %q (%s): %v", k, tag, err)
			}
			if string(got) != tag+"123456789abc" {
				t.Fatalf("read %q (%s) = %q", k, tag, got)
			}
		}
	}
	rw("pre-")
	for i := 0; i < cluster.Proxies(); i++ {
		if err := cluster.RestartProxy(i); err != nil {
			t.Fatalf("restarting proxy %d: %v", i, err)
		}
		rw("r" + string(rune('0'+i)) + "--")
	}
	if vp, vs := shapeViolations(reg); vp+vs != 0 {
		t.Fatalf("shape violations across restarts: proxy=%d server=%d", vp, vs)
	}
}

// TestKillProxyLifecycleErrors pins the kill/recover state machine:
// double kills and spurious recoveries are errors, not silent no-ops.
func TestKillProxyLifecycleErrors(t *testing.T) {
	cluster := newFailoverCluster(t, obs.NewRegistry())
	if err := cluster.RecoverProxy(1); err == nil {
		t.Fatal("recovering a live proxy should fail")
	}
	if err := cluster.KillProxy(1); err != nil {
		t.Fatal(err)
	}
	if err := cluster.KillProxy(1); err == nil {
		t.Fatal("double kill should fail")
	}
	if err := cluster.KillProxy(99); err == nil {
		t.Fatal("killing an out-of-range proxy should fail")
	}
	if err := cluster.RecoverProxy(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cluster.Access(core.OpRead, "fa", nil); err != nil {
		t.Fatalf("access after recover: %v", err)
	}
}
