package harness

import (
	"fmt"
	"math/rand/v2"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/oram"
	"ortoa/internal/stats"
	"ortoa/internal/transport"
	"ortoa/internal/workload"
)

// ORAMRounds measures the §8 sketch: a PathORAM-style tree ORAM whose
// fused access completes in one round trip, against the classic
// two-round scheme, across server distances. This is the paper's
// "future work" made concrete: ORTOA's one-round principle applied to
// a scheme that also hides which object is accessed.
func ORAMRounds(opt Options) (*Table, error) {
	t := &Table{
		ID:      "oram-rounds",
		Title:   "One-round vs two-round tree ORAM (§8 sketch)",
		Columns: []string{"location", "variant", "rpcs/access", "mean-lat(ms)", "tput(ops/s)", "stash"},
	}
	numBlocks := 256
	accesses := opt.ops() * 8
	if opt.Quick {
		numBlocks = 64
	}
	locations := opt.locations()

	for _, loc := range locations {
		for _, mode := range []oram.Mode{oram.TwoRound, oram.OneRound} {
			res, err := runORAM(loc.Link, mode, numBlocks, accesses)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", loc.Name, mode, err)
			}
			t.AddRow(loc.Name, mode.String(),
				fmt.Sprintf("%.1f", res.rpcsPerAccess),
				fmtMS(res.latency.Mean), fmtTput(res.throughput),
				fmt.Sprint(res.stash))
		}
	}
	t.Notes = append(t.Notes,
		"the fused variant reads a path and evicts prior stash blocks in ONE message (§8)",
		"expected: one-round latency ≈ half of two-round at every distance; identical data")
	return t, nil
}

type oramRunResult struct {
	rpcsPerAccess float64
	latency       stats.Summary
	throughput    float64
	stash         int
}

func runORAM(link netsim.Link, mode oram.Mode, numBlocks, accesses int) (oramRunResult, error) {
	cfg := oram.Config{NumBlocks: numBlocks, BlockSize: 64}
	srv, err := oram.NewServer(cfg)
	if err != nil {
		return oramRunResult{}, err
	}
	ts := transport.NewServer()
	srv.Register(ts)
	listener := netsim.Listen(link)
	go ts.Serve(listener) //nolint:errcheck // returns on Close
	defer ts.Close()

	rpc, err := transport.Dial(listener.Dial, 1)
	if err != nil {
		return oramRunResult{}, err
	}
	defer rpc.Close()
	client, err := oram.NewClient(cfg, mode, rpc)
	if err != nil {
		return oramRunResult{}, err
	}
	values := map[int][]byte{}
	for i := 0; i < numBlocks; i++ {
		v := make([]byte, cfg.BlockSize)
		v[0] = byte(i)
		values[i] = v
	}
	buckets, err := client.BuildInitialBuckets(values)
	if err != nil {
		return oramRunResult{}, err
	}
	if err := srv.Load(buckets); err != nil {
		return oramRunResult{}, err
	}

	rng := rand.New(rand.NewPCG(41, uint64(mode)))
	rec := stats.NewRecorder(accesses)
	start := time.Now()
	for i := 0; i < accesses; i++ {
		id := rng.IntN(numBlocks)
		op := core.OpRead
		var v []byte
		if i%3 == 2 {
			op = core.OpWrite
			v = make([]byte, cfg.BlockSize)
			v[0] = byte(i)
		}
		opStart := time.Now()
		if _, err := client.Access(op, id, v); err != nil {
			return oramRunResult{}, err
		}
		rec.Add(time.Since(opStart))
	}
	elapsed := time.Since(start)
	return oramRunResult{
		rpcsPerAccess: float64(rpc.Stats().Calls) / float64(accesses),
		latency:       rec.Summarize(),
		throughput:    stats.Throughput(accesses, elapsed),
		stash:         client.StashSize(),
	}, nil
}

// ZipfAblation contrasts LBL-ORTOA under uniform vs Zipfian key
// popularity (an extension: the paper evaluates uniform only). Hot
// keys stress LBL's per-key access-counter serialization — concurrent
// accesses to one object must not interleave, so they wait for the key
// and then share one round trip as a chain: skew costs the wait for the
// round in flight, not a round trip per access.
func ZipfAblation(opt Options) (*Table, error) {
	t := &Table{
		ID:      "ablation-zipf",
		Title:   "LBL-ORTOA under key skew (Oregon link, 160B values)",
		Columns: []string{"distribution", "mean-lat(ms)", "p99-lat(ms)", "tput(ops/s)"},
	}
	for _, dist := range []struct {
		name string
		d    workload.Distribution
	}{{"uniform", workload.Uniform}, {"zipf(0.99)", workload.Zipfian}} {
		wl := workload.Config{
			NumKeys: opt.keys(), ValueSize: paperValueSize,
			WriteFraction: 0.5, Distribution: dist.d, Seed: 12,
		}
		res, err := Measure(Config{
			System: SystemLBL, Link: netsim.Oregon, ValueSize: paperValueSize,
			LBLMode: core.LBLPointPermute,
		}, wl, opt.conc(), opt.ops())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dist.name, err)
		}
		t.AddRow(dist.name, fmtMS(res.Latency.Mean), fmtMS(res.Latency.P99), fmtTput(res.Throughput))
	}
	t.Notes = append(t.Notes,
		"accesses to a hot key wait for its round in flight and follow it as one chain (§5.2's counter schedule): skew lifts the tail by that wait, not by a round trip per queued access")
	return t, nil
}
