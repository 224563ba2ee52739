package harness

import (
	"fmt"
	"time"

	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

var failoverClaim = Claim{Statement: "when a proxy is crash-killed mid-workload its peers serve its keys: no acknowledged write is lost, the peers rebase the keys they take over and no frame leaves its shape class"}

// Failover exercises the multi-proxy high-availability deployment:
// N trusted proxies share one PRF secret, keys are placed on them by a
// consistent-hash ring, and clients reach the fleet through the
// health-probing core.Router; the records' verifiers decide between
// proxies that serve one key.
//
// It is the kill drill: a 3-proxy fleet serves the drill workload
// (drill.go) while the coordinator crash-kills the proxy the first key is
// placed on, lets the Router move its keys to the survivors — each
// survivor's first access to such a key is answered stale and rebases —
// then recovers it; the reborn proxy starts empty and rebases the same
// way. Stale rejections past a round's recovery allowance are legitimate
// mid-drill. On top of the drill's audit it requires, as counts, that
// the kill really moved keys (router failovers and rebases after the
// kill both nonzero) and that failover traffic stayed inside the fixed
// frame classes the shape auditor pins.
func Failover(opt Options) (*Table, error) {
	t := &Table{
		ID:    "failover",
		Title: "Multi-proxy HA: kill drill (LBL, the records' verifiers decide between proxies)",
		Columns: []string{"phase", "proxies", "ops", "ok", "tput(ops/s)",
			"failovers", "rebased"},
	}
	workers := opt.conc()
	const keysPerWorker = 4
	// The victim is dead for a third of the run. Keep that window several
	// rounds per worker long however few ops were asked for, or the
	// victim is back before any access has reached its dead endpoint
	// and the failover checks below have nothing to see.
	opsPerWorker := max(opt.ops()*8, 24)

	keys, data := drillData("failover", workers*keysPerWorker, paperValueSize, 3)

	cluster, err := drillCluster(data, Config{
		Link:          netsim.Link{RTT: time.Millisecond},
		ConnsPerShard: 4,
		Proxies:       3,
		Transport: transport.Options{
			CallTimeout:      250 * time.Millisecond,
			Retry:            transport.RetryPolicy{Attempts: 4, Backoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
			ReconnectBackoff: 5 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	reg := cluster.cfg.Metrics

	// Kill the proxy the first key's range is placed on, so at least that
	// key's traffic is guaranteed to move to a peer.
	victim := -1
	if owner := cluster.Router().Ring().OwnerOfKey(keys[0]); owner != "" {
		fmt.Sscanf(owner, "proxy-%d", &victim) //nolint:errcheck // validated below
	}
	if victim < 0 || victim >= cluster.Proxies() {
		return nil, fmt.Errorf("harness: cannot resolve victim proxy for %q", keys[0])
	}

	total := int64(workers * opsPerWorker)
	d := newDrill(cluster, keys, workers, 4, outcomeRejected)
	var rebasedAtKill int64
	d.at(total/3, func() error {
		rebasedAtKill = reg.Value("ortoa_lbl_reconciled_keys_total")
		return cluster.KillProxy(victim)
	})
	d.at(2*total/3, func() error { return cluster.RecoverProxy(victim) })
	start := time.Now()
	if err := d.run(opsPerWorker); err != nil {
		return nil, fmt.Errorf("harness: failover drill: %w", err)
	}
	elapsed := time.Since(start)
	totals := d.totals

	// The reborn proxy must be probed back into the ring before the
	// audit, so audit reads exercise its rebases too.
	deadline := time.Now().Add(2 * time.Second)
	for reg.Value("ortoa_router_healthy_members") < int64(cluster.Proxies()) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("harness: recovered proxy %d never readmitted (healthy=%d)",
				victim, reg.Value("ortoa_router_healthy_members"))
		}
		time.Sleep(5 * time.Millisecond)
	}

	audited, err := d.audit()
	if err != nil {
		return nil, fmt.Errorf("harness: failover audit: %w", err)
	}

	failovers := reg.Value("ortoa_router_failovers_total")
	rebased := reg.Value("ortoa_lbl_reconciled_keys_total")
	if failovers == 0 {
		return nil, fmt.Errorf("harness: router recorded no failovers across a proxy kill")
	}
	if rebased <= rebasedAtKill {
		return nil, fmt.Errorf("harness: no key rebased after the kill (%d rebases, %d at the kill; victim %d served no live keys?)", rebased, rebasedAtKill, victim)
	}

	tput := float64(totals.ops) / elapsed.Seconds()
	t.AddRow("kill", "3", fmt.Sprint(totals.ops), fmt.Sprint(totals.ok),
		fmtTput(tput), fmt.Sprint(failovers), fmt.Sprint(rebased))
	t.AddRow("audit", "3", fmt.Sprint(audited), fmt.Sprint(audited), "-", "-",
		fmt.Sprint(reg.Value("ortoa_lbl_reconciled_keys_total")))
	t.Notes = append(t.Notes,
		fmt.Sprintf("audit passed: %d keys consistent across kill+recovery of proxy-%d — zero lost acked writes, label schedules intact", audited, victim),
		fmt.Sprintf("peers served the killed proxy's keys: %d router failovers; %d key rebases after the kill (%d before it)",
			failovers, rebased-rebasedAtKill, rebasedAtKill),
		"shape auditor: 0 length violations — stale answers, rebases and failover retries are frame-class invisible")
	return t, nil
}
