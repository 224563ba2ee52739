package harness

import (
	"fmt"
	"time"

	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

var chaosClaim = Claim{Statement: "under injected resets, stalls, blackholes and partitions, and again with a proxy crash-restarted mid-run, no acknowledged write is lost, no round applies twice and no frame leaves its shape class"}

// Chaos runs the drill workload (drill.go) while the link injects
// connection resets, delivery stalls, blackholed responses, and timed
// partition windows, then switches the faults off and audits every
// key. It is the end-to-end check of the fault-tolerance layer: the
// paper's protocol analysis (§5) assumes the one round trip completes,
// and this experiment is where the repo demonstrates what happens when
// it doesn't. Its fault produces only ambiguity — at-most-once retries
// absorb everything else — so any definite failure is fatal.
//
// A second phase reruns the faults against a 3-proxy HA deployment and
// crash-restarts one proxy mid-run, so transport faults, failover and
// peers rebasing the keys they take over all overlap; there stale
// rejections past a round's recovery allowance are legitimate too.
//
// Obliviousness under retries is asserted separately by the
// deterministic-fault test in internal/core (the traces here are
// fault-timing dependent); transport retries are op-type blind by
// construction, and the experiment reports the retry/replay counters
// so runs can confirm faults actually exercised that path.
func Chaos(opt Options) (*Table, error) {
	t := &Table{
		ID:    "chaos",
		Title: "Mixed workload under injected transport faults (LBL, at-most-once retries)",
		Columns: []string{"phase", "ops", "ok", "ambiguous", "retries", "reconnects",
			"dedup hits", "rebased/behind", "faults (reset/stall/hole/part)"},
	}
	for _, proxies := range []int{0, 3} {
		if err := chaosPhase(t, opt, proxies); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// chaosPhase runs the fault-injected drill against a single proxy
// (proxies == 0) or a proxy fleet one of whose members is
// crash-restarted halfway through, and appends its rows and notes.
func chaosPhase(t *Table, opt Options, proxies int) error {
	workers := opt.conc()
	const keysPerWorker = 4
	opsPerWorker := opt.ops() * 8

	var (
		name, prefix = "", "chaos"           // row and key prefixes
		seed, gen    = uint64(42), uint64(0) // fault-plan seed, value generation
		tolerate     = outcomeAmbiguous
	)
	if proxies > 0 {
		name, prefix, seed, gen, tolerate = "mp-", "chaos-mp", 43, 5, outcomeRejected
	}
	plan := &netsim.FaultPlan{
		Seed:           seed,
		ResetProb:      0.02,
		StallProb:      0.05,
		StallFor:       25 * time.Millisecond,
		BlackholeProb:  0.03,
		PartitionEvery: 400 * time.Millisecond,
		PartitionFor:   60 * time.Millisecond,
	}
	keys, data := drillData(prefix, workers*keysPerWorker, paperValueSize, gen)

	cluster, err := drillCluster(data, Config{
		Link:          netsim.Link{RTT: 2 * time.Millisecond, Fault: plan},
		ConnsPerShard: 4,
		Proxies:       proxies,
		Transport: transport.Options{
			CallTimeout:      150 * time.Millisecond,
			Retry:            transport.RetryPolicy{Attempts: 8, Backoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
			ReconnectBackoff: 5 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	reg := cluster.cfg.Metrics

	d := newDrill(cluster, keys, workers, gen+1, tolerate)
	if proxies > 0 {
		// Crash-restart one proxy halfway through: the survivors serve its
		// keys under fault injection, rebasing each, and it rebases them
		// back on demand once it returns.
		d.at(int64(workers*opsPerWorker/2), func() error {
			if err := cluster.KillProxy(0); err != nil {
				return err
			}
			// The link may be inside a partition window when the proxy
			// comes back; like a supervised daemon, retry its startup dial.
			err := cluster.RecoverProxy(0)
			for attempt := 0; err != nil && attempt < 50; attempt++ {
				time.Sleep(10 * time.Millisecond)
				err = cluster.RecoverProxy(0)
			}
			return err
		})
	}
	if err := d.run(opsPerWorker); err != nil {
		return fmt.Errorf("harness: %schaos workload: %w", name, err)
	}

	// Recovery audit on a healthy network. A key whose last round was
	// lost rebases on its read here.
	plan.SetActive(false)
	audited, err := d.audit()
	if err != nil {
		return fmt.Errorf("harness: %schaos audit: %w", name, err)
	}

	fs := plan.Stats()
	t.AddRow(name+"workload", fmt.Sprint(d.totals.ops), fmt.Sprint(d.totals.ok), fmt.Sprint(d.totals.amb),
		fmt.Sprint(reg.Value("ortoa_transport_client_retries_total")),
		fmt.Sprint(reg.Value("ortoa_transport_client_reconnects_total")),
		fmt.Sprint(reg.Value("ortoa_transport_server_dedup_hits_total")),
		fmt.Sprintf("%d/%d", reg.Value("ortoa_lbl_reconciled_keys_total"), reg.Value("ortoa_lbl_rolled_back_keys_total")),
		fmt.Sprintf("%d/%d/%d/%d", fs.Resets, fs.Stalls, fs.Blackholes, fs.PartitionDrops+fs.DialRefusals))
	t.AddRow(name+"audit", fmt.Sprint(audited), fmt.Sprint(audited), "0", "-", "-", "-", "-", "faults off")
	if proxies > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("multi-proxy audit passed: %d keys consistent across %d faults plus a proxy crash-restart — %d key rebases, %d router failovers, 0 shape violations",
				audited, fs.Total(), reg.Value("ortoa_lbl_reconciled_keys_total"), reg.Value("ortoa_router_failovers_total")))
		return nil
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("audit passed: %d keys consistent after %d injected faults — no lost/duplicated writes, label schedules intact", audited, fs.Total()),
		"ambiguous ops are calls whose outcome the transport could not determine; a key whose lost round ran is answered stale on its next access, with the labels its counter is rebased to (\"rebased\"); \"behind\" counts server rollbacks and must be 0 here",
		"shape auditor: 0 length violations on either side — retried and replayed frames stayed byte-identical to first sends")
	if fs.Total() == 0 {
		t.Notes = append(t.Notes, "warning: fault plan injected nothing; increase ops for a meaningful run")
	}
	return nil
}
