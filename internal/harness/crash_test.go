package harness

import (
	"strings"
	"testing"

	"ortoa/internal/core"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
	"time"
)

// TestCrashQuick runs the crash experiment end to end at unit-test
// scale. The experiment self-audits (lost acknowledged writes,
// duplicate applications, counter re-convergence after kill/restart
// cycles), so a nil error is the assertion; the table checks here only
// guard the reporting shape.
func TestCrashQuick(t *testing.T) {
	tbl, err := Crash(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("crash table has %d rows, want 3 (workload, audit, rollback)", len(tbl.Rows))
	}
	// The rollback phase loads 8 keys; each is found behind once.
	if rb := tbl.Rows[2]; rb[0] != "rollback" || !strings.HasSuffix(rb[len(rb)-1], "/8") {
		t.Errorf("rollback row = %v, want rebased/behind ending /8", rb)
	}
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "audit passed") {
			found = true
		}
	}
	if !found {
		t.Errorf("crash notes missing audit confirmation: %v", tbl.Notes)
	}
}

// durableClusterConfig is a minimal durable single-shard deployment
// for direct Restart tests.
func durableClusterConfig(data map[string][]byte, policy kvstore.SyncPolicy) Config {
	return Config{
		System:        SystemLBL,
		Link:          netsim.Loopback,
		ValueSize:     16,
		Data:          data,
		LBLMode:       core.LBLPointPermute,
		ConnsPerShard: 2,
		Transport: transport.Options{
			CallTimeout:      200 * time.Millisecond,
			Retry:            transport.RetryPolicy{Attempts: 6, Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond},
			ReconnectBackoff: time.Millisecond,
		},
		Durability: &DurabilityConfig{Policy: policy, Seed: 9},
	}
}

// TestClusterRestartDurable kills and recovers a shard between
// accesses: acknowledged writes must survive and the proxy must keep
// working against the reborn server.
func TestClusterRestartDurable(t *testing.T) {
	val := func(b byte) []byte {
		v := make([]byte, 16)
		for i := range v {
			v[i] = b
		}
		return v
	}
	cluster, err := NewCluster(durableClusterConfig(map[string][]byte{"k": val(0)}, kvstore.SyncGroupCommit))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	for cycle := byte(1); cycle <= 3; cycle++ {
		if _, _, err := cluster.Access(core.OpWrite, "k", val(cycle)); err != nil {
			t.Fatalf("cycle %d write: %v", cycle, err)
		}
		if err := cluster.Restart(0); err != nil {
			t.Fatalf("cycle %d restart: %v", cycle, err)
		}
		got, _, err := cluster.Access(core.OpRead, "k", nil)
		if err != nil {
			t.Fatalf("cycle %d read after restart: %v", cycle, err)
		}
		if got[0] != cycle {
			t.Fatalf("cycle %d: read %d after restart, want %d (acknowledged write lost)", cycle, got[0], cycle)
		}
	}
	if n := cluster.WALReplayedTotal(); n == 0 {
		t.Error("restarts replayed no WAL records")
	}
	if st := cluster.DiskStats(); st.Crashes != 3 {
		t.Errorf("DiskStats.Crashes = %d, want 3", st.Crashes)
	}
}

// TestClusterRestartRequiresDurability checks the guard rails: Restart
// without Config.Durability, durability on a non-LBL system.
func TestClusterRestartRequiresDurability(t *testing.T) {
	cluster, err := NewCluster(Config{
		System: SystemLBL, Link: netsim.Loopback, ValueSize: 16,
		Data: map[string][]byte{"k": make([]byte, 16)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Restart(0); err == nil {
		t.Error("Restart succeeded on a non-durable cluster")
	}
	if err := cluster.Restart(7); err == nil {
		t.Error("Restart succeeded on a shard that does not exist")
	}

	cfg := durableClusterConfig(map[string][]byte{"k": make([]byte, 16)}, kvstore.SyncGroupCommit)
	cfg.System = SystemTEE
	if _, err := NewCluster(cfg); err == nil {
		t.Error("NewCluster accepted Durability on a TEE system")
	}
}
