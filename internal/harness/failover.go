package harness

import (
	"fmt"
	"time"

	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

var failoverClaim = Claim{Statement: "when a proxy is crash-killed mid-workload its peers adopt its ranges through the epoch fence: no acknowledged write is lost, stale rounds are fenced and no frame leaves its shape class"}

// Failover exercises the multi-proxy high-availability deployment:
// N trusted proxies share one PRF secret, counter ownership is
// ring-partitioned and epoch-fenced at the server, and clients reach
// the fleet through the health-probing core.Router.
//
// It is the kill-and-adopt drill: a 3-proxy fleet serves the drill
// workload (drill.go) while the coordinator crash-kills the proxy
// owning the first key's range, lets the survivors adopt its ranges
// through the epoch fence (claim → counter rebase from the first stale
// answer), then recovers it — the reborn proxy starts empty and
// re-adopts on demand. Handoff rejections are legitimate mid-drill. On
// top of the drill's audit it requires that the kill really crossed the
// fence (fenced rounds, adoption claims, router failovers all nonzero)
// and that fences, claims, adoption retries and failover traffic all
// stayed inside the fixed frame classes the shape auditor pins.
func Failover(opt Options) (*Table, error) {
	t := &Table{
		ID:    "failover",
		Title: "Multi-proxy HA: kill-and-adopt drill (LBL, epoch-fenced ownership)",
		Columns: []string{"phase", "proxies", "ops", "ok", "tput(ops/s)",
			"failovers", "claims", "fenced@server"},
	}
	workers := opt.conc()
	const keysPerWorker = 4
	// The victim is dead for a third of the run. Keep that window several
	// rounds per worker long however few ops were asked for, or the
	// victim is back before any access has reached its dead endpoint
	// and the fence-crossing checks below have nothing to see.
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
	startupClaims := reg.Value("ortoa_lbl_epoch_claims_total")

	// Kill the proxy that owns the first key's range, so at least that
	// key's traffic is guaranteed to cross the ownership fence.
	victim := -1
	if owner := cluster.Router().Ring().OwnerOfKey(keys[0]); owner != "" {
		fmt.Sscanf(owner, "proxy-%d", &victim) //nolint:errcheck // validated below
	}
	if victim < 0 || victim >= cluster.Proxies() {
		return nil, fmt.Errorf("harness: cannot resolve victim proxy for %q", keys[0])
	}

	total := int64(workers * opsPerWorker)
	d := newDrill(cluster, keys, workers, 4, outcomeRejected)
	d.at(total/3, func() error { return cluster.KillProxy(victim) })
	d.at(2*total/3, func() error { return cluster.RecoverProxy(victim) })
	start := time.Now()
	if err := d.run(opsPerWorker); err != nil {
		return nil, fmt.Errorf("harness: failover drill: %w", err)
	}
	elapsed := time.Since(start)
	totals := d.totals

	// The reborn proxy must be probed back into the ring before the
	// audit, so audit reads exercise its on-demand re-adoption too.
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
	claims := reg.Value("ortoa_lbl_epoch_claims_total")
	fenced := reg.Value("ortoa_lbl_server_fenced_rounds_total")
	if fenced == 0 {
		return nil, fmt.Errorf("harness: kill drill never crossed the epoch fence (victim %d owned no live keys?)", victim)
	}
	if claims <= startupClaims {
		return nil, fmt.Errorf("harness: no adoption claims after the kill (claims %d, startup %d)", claims, startupClaims)
	}
	if failovers == 0 {
		return nil, fmt.Errorf("harness: router recorded no failovers across a proxy kill")
	}

	tput := float64(totals.ops) / elapsed.Seconds()
	t.AddRow("kill-adopt", "3", fmt.Sprint(totals.ops), fmt.Sprint(totals.ok),
		fmtTput(tput), fmt.Sprint(failovers), fmt.Sprint(claims), fmt.Sprint(fenced))
	t.AddRow("audit", "3", fmt.Sprint(audited), fmt.Sprint(audited), "-", "-",
		fmt.Sprint(reg.Value("ortoa_lbl_epoch_claims_total")), fmt.Sprint(reg.Value("ortoa_lbl_server_fenced_rounds_total")))
	t.Notes = append(t.Notes,
		fmt.Sprintf("audit passed: %d keys consistent across kill+recovery of proxy-%d — zero lost acked writes, label schedules intact", audited, victim),
		fmt.Sprintf("ownership handoff: %d adoption claims past the %d startup claims; %d rounds fenced at the server; %d router failovers",
			claims-startupClaims, startupClaims, fenced, failovers),
		"shape auditor: 0 length violations — fence rejections, claims, and adoption retries are frame-class invisible")
	return t, nil
}
