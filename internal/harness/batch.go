package harness

import (
	"fmt"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/workload"
)

// fallbackWindow mirrors the public client's concurrent-fallback batch
// parallelism, so the comparison below measures exactly the seed path a
// batched deployment replaces.
const fallbackWindow = 16

// AccessBatch routes a batch of operations to their owning shards, one
// LBL batch RPC per touched shard, and returns values in input order.
// Only SystemLBL clusters support it.
func (c *Cluster) AccessBatch(ops []core.BatchOp) ([][]byte, error) {
	perShard := make([][]int, len(c.shards)) // op indices by owning shard
	for i := range ops {
		si := c.placement[core.RangeOf(ops[i].Key)]
		perShard[si] = append(perShard[si], i)
	}
	values := make([][]byte, len(ops))
	err := core.ForEach(len(c.shards), len(c.shards), func(si int) error {
		idxs, px := perShard[si], c.shards[si].px
		if len(idxs) == 0 {
			return nil
		}
		if px == nil || px.LBL == nil {
			return fmt.Errorf("harness: %s has no batch path", c.cfg.System)
		}
		sub := make([]core.BatchOp, len(idxs))
		for j, i := range idxs {
			sub[j] = ops[i]
		}
		vals, _, err := px.LBL.AccessBatch(sub)
		if err != nil {
			return err
		}
		for j, i := range idxs {
			values[i] = vals[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return values, nil
}

// BatchPipeline measures the batched oblivious-access pipeline against
// the concurrent single-access path it replaces: same keys, same link,
// same protocol — one request frame versus one RPC per key
// windowed at fallbackWindow in flight. Reported RPC counts come from
// the transport's own counters, so the one-round-trip claim is measured,
// not assumed.
func BatchPipeline(opt Options) (*Table, error) {
	t := &Table{
		ID:      "batch",
		Title:   "Batched access pipeline vs concurrent singles (Oregon RTT, 160B values)",
		Columns: []string{"batch", "path", "lat/batch(ms)", "tput(ops/s)", "rpcs/batch"},
	}
	// RTT-only link: netsim models bandwidth per connection, so the
	// 16-connection fallback pool would enjoy 16x the batch path's
	// aggregate bandwidth — an artifact no shared WAN uplink provides.
	// Dropping the cap isolates the quantity batching actually changes,
	// the round-trip count.
	link := netsim.Link{RTT: netsim.Oregon.RTT}
	sizes := []int{16, 64, 256}
	iters := 5
	if opt.Quick {
		sizes = []int{8, 32}
		iters = 2
	}
	for _, size := range sizes {
		keys := size
		if opt.Keys > keys {
			keys = opt.Keys
		}
		wl := workload.Config{NumKeys: keys, ValueSize: paperValueSize, Seed: 11}
		cluster, err := NewCluster(Config{
			System:        SystemLBL,
			Link:          link,
			ValueSize:     paperValueSize,
			LBLMode:       core.LBLPointPermute,
			Data:          workload.InitialData(wl),
			ConnsPerShard: fallbackWindow,
		})
		if err != nil {
			return nil, fmt.Errorf("batch size %d: %w", size, err)
		}
		ops := make([]core.BatchOp, size)
		for i := range ops {
			ops[i] = core.BatchOp{Op: core.OpRead, Key: workload.Key(i)}
		}

		measure := func(run func() error) (time.Duration, int64, error) {
			before := cluster.TrafficStats().Calls
			start := time.Now()
			for it := 0; it < iters; it++ {
				if err := run(); err != nil {
					return 0, 0, err
				}
			}
			elapsed := time.Since(start) / time.Duration(iters)
			rpcs := (cluster.TrafficStats().Calls - before) / int64(iters)
			return elapsed, rpcs, nil
		}

		batched, batchedRPCs, err := measure(func() error {
			_, err := cluster.AccessBatch(ops)
			return err
		})
		if err != nil {
			cluster.Close()
			return nil, fmt.Errorf("batched size %d: %w", size, err)
		}
		singles, singleRPCs, err := measure(func() error {
			return core.ForEach(len(ops), fallbackWindow, func(i int) error {
				_, _, err := cluster.Access(ops[i].Op, ops[i].Key, nil)
				return err
			})
		})
		cluster.Close()
		if err != nil {
			return nil, fmt.Errorf("concurrent size %d: %w", size, err)
		}

		t.AddRow(fmt.Sprint(size), "batched", fmtMS(batched),
			fmtTput(float64(size)/batched.Seconds()), fmt.Sprint(batchedRPCs))
		t.AddRow(fmt.Sprint(size), "concurrent", fmtMS(singles),
			fmtTput(float64(size)/singles.Seconds()), fmt.Sprint(singleRPCs))
	}
	t.Notes = append(t.Notes,
		"batched path packs the whole batch into one MsgLBLAccess request (1 rpc/batch)",
		fmt.Sprintf("concurrent path issues one RPC per key, %d in flight, so latency scales with ceil(batch/%d) round trips", fallbackWindow, fallbackWindow))
	return t, nil
}
