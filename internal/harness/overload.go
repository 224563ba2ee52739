package harness

import (
	"fmt"
	"time"

	"ortoa/internal/netsim"
	"ortoa/internal/stats"
	"ortoa/internal/transport"
)

// Overload drives the deployment past saturation and checks that it
// degrades the way §15 of DESIGN.md promises instead of collapsing:
//
//   - Phase 1 measures capacity: the admission-limited 2-proxy cluster
//     under exactly as many workers as it has admission slots, i.e. the
//     load it was provisioned for. No shedding is expected here.
//   - Phase 2 offers 10x that concurrency against the same cluster.
//     Admission control must shed the overflow with constant-size busy
//     frames while the accepted requests keep flowing.
//
// The experiment then asserts the overload invariants:
//
//   - Goodput under 10x overload stays >= 70% of measured capacity —
//     shedding costs a little throughput, saturation collapse costs all
//     of it.
//   - Accepted requests keep a bounded p99 (no accepted request rode a
//     multi-second queue; the queue's job is to stay short and shed).
//   - The overflow was actually shed: admission counters moved.
//   - The drill's audit (drill.go) over both phases' keys: busy and
//     expired rejections claim "not executed", so they never widened an
//     acceptable set, and no acknowledged write may be lost.
//   - Zero obliviousness shape violations: busy frames, expired-round
//     rejections, and breaker traffic all stay inside the fixed frame
//     classes the shape auditor pins.
func Overload(opt Options) (*Table, error) {
	t := &Table{
		ID:    "overload",
		Title: "Overload shedding: goodput and bounded latency at 10x offered load (LBL, admission-limited)",
		Columns: []string{"phase", "workers", "ops", "ok", "busy", "expired",
			"shed@adm", "tput(ops/s)", "p99(ms)"},
	}

	baseWorkers := opt.conc()
	capOps := opt.ops() * 8
	overWorkers := 10 * baseWorkers
	overOps := opt.ops() * 3

	// Disjoint key sets per phase: a key written in phase 1 must never
	// be read against phase 2's acceptable sets (and vice versa), so
	// each phase audits only its own writes.
	capKeys, data := drillData("capacity", baseWorkers*4, paperValueSize, 13)
	overKeys, overData := drillData("overload", overWorkers*2, paperValueSize, 15)
	for k, v := range overData {
		data[k] = v
	}

	// One cluster for both phases, provisioned for baseWorkers: every
	// shard server and proxy front end admits at most baseWorkers
	// concurrent requests plus a bounded LIFO queue, sheds
	// deadline-expired work, and hints the retry pace.
	cluster, err := drillCluster(data, Config{
		Link:          netsim.Link{RTT: time.Millisecond},
		ConnsPerShard: 8,
		Proxies:       2,
		Transport: transport.Options{
			CallTimeout:      250 * time.Millisecond,
			Retry:            transport.RetryPolicy{Attempts: 3, Backoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
			ReconnectBackoff: 5 * time.Millisecond,
		},
		Admission: &transport.AdmissionConfig{
			MaxInflight: baseWorkers,
			MaxQueue:    2 * baseWorkers,
			ShedExpired: true,
			RetryAfter:  5 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	reg := cluster.cfg.Metrics

	// phase offers the cluster `workers` closed loops of the drill
	// workload and returns the drill with the goodput it achieved.
	phase := func(what string, keys []string, workers, ops int, gen uint64) (*drill, float64, error) {
		d := newDrill(cluster, keys, workers, gen, outcomeRejected)
		d.rec = stats.NewRecorder(workers * ops)
		start := time.Now()
		if err := d.run(ops); err != nil {
			return nil, 0, fmt.Errorf("harness: overload %s phase: %w", what, err)
		}
		return d, float64(d.totals.ok) / time.Since(start).Seconds(), nil
	}

	// Phase 1: capacity at provisioned concurrency.
	d1, capacity, err := phase("capacity", capKeys, baseWorkers, capOps, 14)
	if err != nil {
		return nil, err
	}
	if d1.totals.ok == 0 {
		return nil, fmt.Errorf("harness: capacity phase completed no operations")
	}
	tot1, adm1, sum1 := d1.totals, cluster.AdmissionStats(), d1.rec.Summarize()

	// Phase 2: 10x offered load against the same admission limits.
	d2, goodput, err := phase("10x", overKeys, overWorkers, overOps, 16)
	if err != nil {
		return nil, err
	}
	tot2, adm2, sum2 := d2.totals, cluster.AdmissionStats(), d2.rec.Summarize()
	shed2 := (adm2.Shed + adm2.Expired) - (adm1.Shed + adm1.Expired)

	// Invariants. Goodput is the one the paper's threat model cannot
	// buy back: an overloaded oblivious store must stay an oblivious
	// store, not become a slow open one.
	if goodput < 0.7*capacity {
		return nil, fmt.Errorf("harness: goodput collapsed under 10x load: %.0f ops/s vs capacity %.0f (floor 70%%; %d busy, %d expired, p99 %s)",
			goodput, capacity, tot2.busy, tot2.expired, sum2.P99)
	}
	if sum2.P99 > 2*time.Second {
		return nil, fmt.Errorf("harness: accepted-request p99 unbounded under overload: %s", sum2.P99)
	}
	if shed2 <= 0 {
		return nil, fmt.Errorf("harness: 10x offered load shed nothing (shed=%d expired=%d) — admission control inert",
			adm2.Shed-adm1.Shed, adm2.Expired-adm1.Expired)
	}

	// Audit both phases' keys on the now-idle cluster: every busy or
	// expired rejection claimed "not executed", so no acceptable set may
	// have silently widened, and no acknowledged write may be lost.
	audited := 0
	for _, d := range []*drill{d1, d2} {
		n, err := d.audit()
		if err != nil {
			return nil, fmt.Errorf("harness: overload audit: %w", err)
		}
		audited += n
	}

	t.AddRow("capacity", fmt.Sprint(baseWorkers), fmt.Sprint(tot1.ops), fmt.Sprint(tot1.ok),
		fmt.Sprint(tot1.busy), fmt.Sprint(tot1.expired), fmt.Sprint(adm1.Shed+adm1.Expired),
		fmtTput(capacity), fmtMS(sum1.P99))
	t.AddRow("10x-overload", fmt.Sprint(overWorkers), fmt.Sprint(tot2.ops), fmt.Sprint(tot2.ok),
		fmt.Sprint(tot2.busy), fmt.Sprint(tot2.expired), fmt.Sprint(shed2),
		fmtTput(goodput), fmtMS(sum2.P99))
	t.Notes = append(t.Notes,
		fmt.Sprintf("goodput under 10x load: %.0f%% of measured capacity (floor 70%%); accepted-request p99 %s (bound 2s)",
			100*goodput/capacity, sum2.P99.Round(time.Millisecond)),
		fmt.Sprintf("audit passed: %d keys consistent across both phases — every busy/expired rejection really was not executed",
			audited),
		fmt.Sprintf("router under saturation: %d busy rejections surfaced for backoff, %d breaker trips; server dropped %d expired-on-arrival rounds before decrypt",
			reg.Value("ortoa_router_busy_total"), reg.Value("ortoa_router_breaker_trips_total"),
			reg.Value("ortoa_lbl_server_expired_rounds_total")),
		"shape auditor: 0 length violations — busy frames and expired-round rejections are frame-class invisible")
	return t, nil
}
