package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/workload"
)

// fastLink keeps unit tests quick while still exercising the netsim
// path.
var fastLink = netsim.Link{RTT: 2 * time.Millisecond, Bandwidth: 64 << 20}

func quickWorkload() workload.Config {
	return workload.Config{NumKeys: 64, ValueSize: 16, WriteFraction: 0.5, Seed: 1}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{System: SystemLBL}); err == nil {
		t.Error("NewCluster accepted zero ValueSize")
	}
	if _, err := NewCluster(Config{System: "nope", ValueSize: 8, Data: map[string][]byte{}}); err == nil {
		t.Error("NewCluster accepted unknown system")
	}
}

func TestMeasureAllSystems(t *testing.T) {
	wl := quickWorkload()
	for _, sys := range []System{SystemLBL, SystemTEE, SystemBaseline} {
		t.Run(string(sys), func(t *testing.T) {
			res, err := Measure(Config{System: sys, Link: fastLink, ValueSize: wl.ValueSize}, wl, 4, 5)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 20 {
				t.Errorf("Ops = %d, want 20", res.Ops)
			}
			if res.Errors != 0 {
				t.Errorf("Errors = %d", res.Errors)
			}
			if res.Throughput <= 0 {
				t.Error("Throughput not positive")
			}
			if res.Latency.Mean < fastLink.RTT {
				t.Errorf("mean latency %v below one RTT %v", res.Latency.Mean, fastLink.RTT)
			}
		})
	}
}

func TestBaselineSlowerThanOneRound(t *testing.T) {
	// The heart of the paper: on the same link, the 2RTT baseline's
	// latency must be roughly twice the one-round protocols'.
	link := netsim.Link{RTT: 20 * time.Millisecond, Bandwidth: 0}
	wl := quickWorkload()
	tee, err := Measure(Config{System: SystemTEE, Link: link, ValueSize: wl.ValueSize}, wl, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Measure(Config{System: SystemBaseline, Link: link, ValueSize: wl.ValueSize}, wl, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(base.Latency.Mean) / float64(tee.Latency.Mean)
	if ratio < 1.4 {
		t.Errorf("baseline/TEE latency ratio = %.2f, want ≥ 1.4 (paper: 1.5-1.9)", ratio)
	}
}

func TestMultiShardCluster(t *testing.T) {
	wl := quickWorkload()
	res, err := Measure(Config{System: SystemLBL, Link: fastLink, ValueSize: wl.ValueSize, Shards: 3}, wl, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("multi-shard run had %d errors", res.Errors)
	}
}

func TestClusterRouting(t *testing.T) {
	// Every key must be accessible in a sharded cluster (routing is
	// consistent between load and access).
	wl := workload.Config{NumKeys: 40, ValueSize: 8, WriteFraction: 0, Seed: 2}
	data := workload.InitialData(wl)
	cluster, err := NewCluster(Config{System: SystemLBL, Link: netsim.Loopback, ValueSize: 8, Shards: 4, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for k, v := range data {
		got, err := cluster.Access(core.OpRead, k, nil)
		if err != nil {
			t.Fatalf("read %q: %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("read %q = %x, want %x", k, got, v)
		}
	}
	if cluster.Shards() != 4 {
		t.Errorf("Shards = %d", cluster.Shards())
	}
	if cluster.ServerBytes() <= 0 {
		t.Error("ServerBytes not positive")
	}
}

func TestRunKeyed(t *testing.T) {
	ds := workload.EHR(32)
	cluster, err := NewCluster(Config{System: SystemBaseline, Link: fastLink, ValueSize: ds.ValueSize, Data: ds.Data()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	res, err := RunKeyed(cluster, ds.Records, 4, 4, ds.ValueSize)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 16 || res.Errors != 0 {
		t.Errorf("RunKeyed ops=%d errors=%d", res.Ops, res.Errors)
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("Run accepted nil cluster")
	}
	cluster, err := NewCluster(Config{System: SystemBaseline, Link: netsim.Loopback, ValueSize: 8,
		Data: map[string][]byte{"k": make([]byte, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := Run(RunConfig{Cluster: cluster}); err == nil {
		t.Error("Run accepted zero concurrency")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "test",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: test ==", "a", "bb", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig2a"); err != nil {
		t.Error(err)
	}
	// "batch" is a deleted experiment's id: it must not resolve.
	for _, id := range []string{"bogus", "batch"} {
		if _, err := Lookup(id); err == nil {
			t.Errorf("Lookup accepted unknown id %q", id)
		}
	}
	// Every registered experiment has a unique, nonempty id.
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestCostModelAgainstPaperShape(t *testing.T) {
	e := EstimateCost(core.LBLConfig{ValueSize: 160, Mode: core.LBLPointPermute}, 1_000_000)
	// Paper §6.3.3: ~8MB of proxy counters for 1M objects.
	if e.ProxyCounterMB != 8 {
		t.Errorf("proxy counters = %.1f MB, want 8", e.ProxyCounterMB)
	}
	// Storage in the right ballpark: ℓ/y labels × 16B ≈ 10KB/object →
	// ~10GB + overheads.
	if e.StorageGB < 5 || e.StorageGB > 30 {
		t.Errorf("storage = %.1f GB, implausible", e.StorageGB)
	}
	// Cost per request is small but nonzero (paper: $0.000023).
	if e.PerRequestUSD <= 0 || e.PerRequestUSD > 0.001 {
		t.Errorf("per-request cost = %f", e.PerRequestUSD)
	}
}

func TestFig6OptimumAtY2(t *testing.T) {
	tbl, err := Fig6Factors(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("fig6 has %d rows", len(tbl.Rows))
	}
	// The analytic claim, checked in -short mode too.
	if err := fig6Claim.Check(tbl); err != nil {
		t.Error(err)
	}
}

func TestFig2aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment in -short mode")
	}
	tbl, err := Fig2a(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// 2 locations × 3 systems in quick mode.
	if len(tbl.Rows) != 6 {
		t.Errorf("fig2a quick has %d rows, want 6", len(tbl.Rows))
	}
}

func TestLBLModeAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment in -short mode")
	}
	tbl, err := LBLModeAblation(Options{Quick: true, Keys: 32, Ops: 2, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("ablation has %d rows", len(tbl.Rows))
	}
}
