package harness

import (
	"fmt"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
)

// This file implements the "stream" drill: requests cut under a frame
// budget (core.LBLConfig.StreamChunkBytes) driven through connection
// resets that kill them between frames. What cutting costs or gains in
// time is the repository benchmark's dc-4k-stream workload to say; how
// a request is framed is pinned by TestLBLRequestFraming. The drill's
// verdict holds no timing: it fails on a lost acknowledged write, a
// desynchronized label schedule, a shape violation, or a fault plan
// that never fired.

// streamFaultDrill runs the drill workload (drill.go), one worker on
// one key, through random connection resets — requests dying between
// frames — and audits it: a request cut after its table reached the
// server, or whose response was lost, may or may not have applied, and
// nothing else may move the key. A reset usually kills the pooled
// connections, so any definite failure is a skipped access and the
// worker pauses after one, letting the background redial land so the
// drill spends its accesses on live streams, not dead sockets.
func streamFaultDrill(cfg core.LBLConfig, accesses int) (resets int64, totals drillTotals, err error) {
	plan := &netsim.FaultPlan{Seed: 11, ResetProb: 0.05, MaxFaults: 8}
	plan.SetActive(false)
	keys, data := drillData("fault-key", 1, cfg.ValueSize, 17)
	cluster, err := NewCluster(Config{
		System:           SystemLBL,
		Link:             netsim.Link{Fault: plan},
		ValueSize:        cfg.ValueSize,
		Data:             data,
		LBLMode:          cfg.Mode,
		StreamChunkBytes: cfg.StreamChunkBytes,
		ConnsPerShard:    2,
		Metrics:          obs.NewRegistry(),
	})
	if err != nil {
		return 0, totals, err
	}
	defer cluster.Close()

	d := newDrill(cluster, keys, 1, 18, outcomeFailed)
	d.failPause = 20 * time.Millisecond
	plan.SetActive(true)
	if err := d.run(accesses); err != nil {
		return 0, totals, fmt.Errorf("stream fault drill: %w", err)
	}
	plan.SetActive(false)
	if _, err := d.audit(); err != nil {
		return 0, totals, fmt.Errorf("stream fault drill audit: %w", err)
	}
	return plan.Stats().Resets, d.totals, nil
}

// Stream drives requests cut into several frames through a mid-request
// fault drill. The config is small: the ambiguity machinery is
// size-independent, and faults on megabyte tables would only be slow.
func Stream(opt Options) (*Table, error) {
	cfg := core.LBLConfig{ValueSize: 512, Mode: core.LBLPointPermute}
	cfg.StreamChunkBytes = cfg.TableBytes() / 4
	accesses := 60
	if opt.Quick {
		accesses = 30
	}
	resets, totals, err := streamFaultDrill(cfg, accesses)
	if err != nil {
		return nil, err
	}
	if resets == 0 {
		return nil, fmt.Errorf("harness: stream drill's fault plan injected no resets in %d accesses: no request died mid-stream", accesses)
	}

	t := &Table{
		ID:      "stream",
		Title:   "Requests cut under a frame budget, reset mid-request (512 B values, point-permute)",
		Columns: []string{"frames/op", "ops", "ok", "ambiguous", "failed", "resets"},
	}
	t.AddRow(fmt.Sprint(cfg.RequestFrames(1)), fmt.Sprint(totals.ops), fmt.Sprint(totals.ok),
		fmt.Sprint(totals.amb), fmt.Sprint(totals.failed), fmt.Sprint(resets))
	t.Notes = append(t.Notes,
		fmt.Sprintf("audit passed: %d injected connection resets, no acknowledged write lost, label schedule intact, 0 shape violations on either side",
			resets),
		"what cutting a request costs or gains in time is the repository benchmark's dc-4k-stream workload (BENCHMARK.json); this drill's verdict holds no timing")
	return t, nil
}
