package harness

import (
	"context"
	"fmt"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/tier"
	"ortoa/internal/transport"
	"ortoa/internal/workload"
)

// aggWindowLen is the coalescing window the aggregated path waits per
// batch — the latency each access risks paying to share a round trip.
const aggWindowLen = 2 * time.Millisecond

// gatedAccessor bounds concurrent proxy→server accesses at the shared
// slot budget, modeling the bounded in-flight window every real
// proxy→server path runs under (connection-level flow control, server
// admission limits); netsim's transport would otherwise pipeline
// unboundedly.
type gatedAccessor struct {
	slots chan struct{}
	next  core.Accessor
}

func (g gatedAccessor) Access(op core.Op, key string, newValue []byte) ([]byte, core.AccessStats, error) {
	g.slots <- struct{}{}
	defer func() { <-g.slots }()
	return g.next.Access(op, key, newValue)
}

// gatedBatchAccessor is the same budget applied to the aggregated
// path: one whole batch round trip occupies one slot, exactly like
// one single access does.
type gatedBatchAccessor struct {
	slots chan struct{}
	next  core.BatchAccessor
}

func (g gatedBatchAccessor) AccessBatchResults(ctx context.Context, ops []core.BatchOp) ([]core.BatchResult, core.AccessStats) {
	g.slots <- struct{}{}
	defer func() { <-g.slots }()
	return g.next.AccessBatchResults(ctx, ops)
}

// aggRig is one end-to-end deployment for the aggregate experiment:
// end-user sessions → proxy front end (netsim loopback) → LBL proxy →
// server (netsim WAN RTT), with the proxy→server path gated at
// fallbackWindow concurrent round trips for both compared paths. The
// tiers are the standard ones (internal/tier); the gate is the one
// piece this rig interposes.
type aggRig struct {
	server   *tier.Server
	proxy    *tier.Proxy
	front    *tier.Front
	users    []*transport.Client
	sessions []*core.RemoteAccessor
}

func newAggRig(sessions, valueSize int, aggregated bool, reg *obs.Registry) (*aggRig, error) {
	r := &aggRig{}
	fail := func(err error) (*aggRig, error) {
		r.Close()
		return nil, err
	}

	// Untrusted server over an RTT-only WAN link. Like BatchPipeline,
	// the link models propagation delay without per-connection
	// bandwidth: netsim meters bandwidth per connection, so the
	// many-connection singles path would enjoy aggregate bandwidth no
	// shared uplink provides, hiding the round-trip effect under a
	// simulation artifact.
	var err error
	if r.server, err = tier.NewServer(tier.ServerConfig{ValueSize: valueSize, Metrics: reg}); err != nil {
		return fail(err)
	}
	serverLn := netsim.Listen(netsim.Link{RTT: netsim.London.RTT})
	go r.server.Transport.Serve(serverLn) //nolint:errcheck // returns on Close

	r.proxy, err = tier.NewProxy(tier.ProxyConfig{
		ValueSize: valueSize,
		PRF:       prf.NewRandom(),
		LBL:       core.LBLConfig{Mode: core.LBLPointPermute},
		Transport: transport.Options{PoolSize: fallbackWindow},
		Metrics:   reg,
	}, serverLn.Dial)
	if err != nil {
		return fail(err)
	}
	for i := 0; i < sessions; i++ {
		ek, rec, err := r.proxy.BuildRecord(workload.Key(i), make([]byte, valueSize))
		if err != nil {
			return fail(err)
		}
		if err := r.server.Store.Put(ek, rec); err != nil {
			return fail(err)
		}
	}

	// Both paths spend the same fallbackWindow-slot budget on server
	// round trips; aggregation differs only in how many accesses one
	// slot carries.
	gate := make(chan struct{}, fallbackWindow)
	r.proxy.Accessor = gatedAccessor{slots: gate, next: r.proxy.Accessor}
	r.proxy.Batch = gatedBatchAccessor{slots: gate, next: r.proxy.Batch}
	var fcfg tier.FrontConfig
	if aggregated {
		fcfg = tier.FrontConfig{AggWindow: aggWindowLen, AggMaxBatch: sessions}
	}

	// Proxy front end and one connection per end-user session, as in
	// the §2.1 deployment: every session is an independent client that
	// issues one access at a time.
	if r.front, err = r.proxy.NewFront(fcfg); err != nil {
		return fail(err)
	}
	userLn := netsim.Listen(netsim.Loopback)
	go r.front.Transport.Serve(userLn) //nolint:errcheck // returns on Close
	for s := 0; s < sessions; s++ {
		uc, err := transport.Dial(userLn.Dial, 1)
		if err != nil {
			return fail(err)
		}
		r.users = append(r.users, uc)
		r.sessions = append(r.sessions, core.NewRemoteAccessor(uc))
	}
	return r, nil
}

func (r *aggRig) Close() {
	for _, uc := range r.users {
		uc.Close()
	}
	if r.proxy != nil {
		r.proxy.Close() //nolint:errcheck // best-effort teardown
	}
	if r.server != nil {
		r.server.Close() //nolint:errcheck
	}
}

// Aggregate measures the cross-session aggregation front end: N
// concurrent end-user sessions each looping single-key accesses
// through the proxy, with and without the time/size coalescing window
// in front of the LBL batch path. Throughput, server round trips per
// access, and the realized coalesce ratio all come from the
// components' own counters.
func Aggregate(opt Options) (*Table, error) {
	t := &Table{
		ID:    "aggregate",
		Title: "Cross-session aggregation window vs per-request proxying (London RTT, 160B values)",
		Columns: []string{"sessions", "path", "tput(ops/s)", "speedup",
			"server-rpcs/op", "coalesce"},
	}
	sessionCounts := []int{16, 64}
	rounds := 6
	if opt.Quick {
		sessionCounts = []int{64}
		rounds = 3
	}
	if opt.Concurrency > 0 {
		sessionCounts = []int{opt.Concurrency}
	}

	run := func(sessions int, aggregated bool) (tput, rpcsPerOp, coalesce float64, err error) {
		// A fresh registry per rig: the shape auditor pins frame lengths
		// per deployment, and every window size must stay byte-identical
		// within its class across the whole run.
		reg := obs.NewRegistry()
		r, err := newAggRig(sessions, paperValueSize, aggregated, reg)
		if err != nil {
			return 0, 0, 0, err
		}
		defer r.Close()

		before := r.proxy.RPC.Stats().Calls
		begin := time.Now()
		err = core.ForEach(sessions, sessions, func(s int) error {
			key := workload.Key(s)
			for i := 0; i < rounds; i++ {
				if _, _, err := r.sessions[s].Access(core.OpRead, key, nil); err != nil {
					return fmt.Errorf("session %d: %w", s, err)
				}
			}
			return nil
		})
		elapsed := time.Since(begin)
		if err != nil {
			return 0, 0, 0, err
		}

		ops := sessions * rounds
		rpcs := r.proxy.RPC.Stats().Calls - before
		tput = float64(ops) / elapsed.Seconds()
		rpcsPerOp = float64(rpcs) / float64(ops)
		if r.front.Agg != nil {
			coalesce = r.front.Agg.Stats().CoalesceRatio()
		}
		if vp, vs := shapeViolations(reg); vp+vs != 0 {
			return 0, 0, 0, fmt.Errorf("obliviousness shape violations: proxy=%d server=%d", vp, vs)
		}
		return tput, rpcsPerOp, coalesce, nil
	}

	for _, sessions := range sessionCounts {
		baseTput, baseRPCs, _, err := run(sessions, false)
		if err != nil {
			return nil, fmt.Errorf("unaggregated %d sessions: %w", sessions, err)
		}
		aggTput, aggRPCs, coalesce, err := run(sessions, true)
		if err != nil {
			return nil, fmt.Errorf("aggregated %d sessions: %w", sessions, err)
		}
		t.AddRow(fmt.Sprint(sessions), "per-request", fmtTput(baseTput), "1.00x",
			fmt.Sprintf("%.2f", baseRPCs), "-")
		t.AddRow(fmt.Sprint(sessions), "aggregated", fmtTput(aggTput),
			fmt.Sprintf("%.2fx", aggTput/baseTput),
			fmt.Sprintf("%.2f", aggRPCs), fmt.Sprintf("%.1f", coalesce))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("both paths share a %d-slot proxy→server round-trip budget; aggregation packs a whole window into one slot", fallbackWindow),
		fmt.Sprintf("aggregation window: %s or %s accesses, whichever closes first", aggWindowLen, "MaxBatch=sessions"),
		"RTT-only link (no per-connection bandwidth), as in the batch experiment: netsim meters bandwidth per connection, which would gift the per-request path unshared aggregate bandwidth",
		"sessions gain from aggregation once they outnumber the round-trip budget; at sessions <= budget the window only adds its wait",
		"shape auditor: 0 length violations — every batch frame of a given window size was byte-identical, aggregated or not")
	return t, nil
}
