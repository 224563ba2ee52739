package harness

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/stats"
	"ortoa/internal/workload"
)

// RunConfig describes one measured run against a cluster.
type RunConfig struct {
	Cluster *Cluster
	// Workload drives the request mix; NumKeys/ValueSize must match
	// the cluster's loaded data.
	Workload workload.Config
	// Concurrency is the number of closed-loop client threads (each
	// waits for its response before issuing the next request, §6).
	Concurrency int
	// OpsPerClient is the number of operations each thread performs.
	OpsPerClient int
}

// Result is one measured data point.
type Result struct {
	System     System
	Latency    stats.Summary
	Throughput float64 // ops/s
	Elapsed    time.Duration
	Ops        int
	Errors     int
}

// Run drives the workload and measures latency and throughput.
func Run(cfg RunConfig) (Result, error) {
	if cfg.Cluster == nil {
		return Result{}, fmt.Errorf("harness: RunConfig requires a Cluster")
	}
	return runClosedLoop(cfg.Cluster, cfg.Concurrency, cfg.OpsPerClient, func(worker int) (func() workload.Request, error) {
		wl := cfg.Workload
		wl.Seed = cfg.Workload.Seed + uint64(worker)*1_000_003 + 1
		gen, err := workload.NewGenerator(wl)
		if err != nil {
			return nil, err
		}
		return gen.Next, nil
	})
}

// RunKeyed drives a 50/50 read/write closed-loop workload over an
// explicit key set (the real-dataset experiments of Fig 4, whose keys
// are not the synthetic key space).
func RunKeyed(cluster *Cluster, records []workload.Record, concurrency, opsPerClient, valueSize int) (Result, error) {
	if len(records) == 0 {
		return Result{}, fmt.Errorf("harness: RunKeyed needs records")
	}
	return runClosedLoop(cluster, concurrency, opsPerClient, func(worker int) (func() workload.Request, error) {
		rng := rand.New(rand.NewPCG(uint64(worker), 0xDA7A))
		return func() workload.Request {
			req := workload.Request{Op: core.OpRead, Key: records[rng.IntN(len(records))].Key}
			if rng.IntN(2) == 1 {
				req.Op, req.Value = core.OpWrite, make([]byte, valueSize)
				for j := range req.Value {
					req.Value[j] = byte(rng.Uint32())
				}
			}
			return req
		}, nil
	})
}

// runClosedLoop has `concurrency` client threads each issue
// opsPerClient requests drawn from their own source(worker) stream,
// waiting for every response before the next request (§6), and
// measures latency and throughput. Failed operations are counted and
// the first error returned alongside the result; a run in which every
// operation failed returns no result.
func runClosedLoop(cluster *Cluster, concurrency, opsPerClient int, source func(worker int) (func() workload.Request, error)) (Result, error) {
	if concurrency <= 0 || opsPerClient <= 0 {
		return Result{}, fmt.Errorf("harness: Concurrency and OpsPerClient must be positive")
	}
	totalOps := concurrency * opsPerClient
	rec := stats.NewRecorder(totalOps)

	var wg sync.WaitGroup
	var mu sync.Mutex
	errCount := 0
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			next, err := source(worker)
			if err != nil {
				fail(err)
				return
			}
			for i := 0; i < opsPerClient; i++ {
				req := next()
				opStart := time.Now()
				_, _, err := cluster.Access(req.Op, req.Key, req.Value)
				rec.Add(time.Since(opStart))
				if err != nil {
					mu.Lock()
					errCount++
					mu.Unlock()
					fail(fmt.Errorf("harness: %s %q: %w", req.Op, req.Key, err))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil && errCount == totalOps {
		return Result{}, firstErr
	}

	return Result{
		System:     cluster.cfg.System,
		Latency:    rec.Summarize(),
		Throughput: stats.Throughput(totalOps, elapsed),
		Elapsed:    elapsed,
		Ops:        totalOps,
		Errors:     errCount,
	}, firstErr
}

// Measure builds a cluster for cfg, runs the workload once, and tears
// the cluster down — the one-shot helper most experiments use.
func Measure(ccfg Config, wl workload.Config, concurrency, opsPerClient int) (Result, error) {
	if ccfg.ConnsPerShard == 0 {
		ccfg.ConnsPerShard = min(max(concurrency/max(1, ccfg.Shards), 1), 64)
	}
	if ccfg.Data == nil {
		ccfg.Data = workload.InitialData(wl)
	}
	cluster, err := NewCluster(ccfg)
	if err != nil {
		return Result{}, err
	}
	defer cluster.Close()
	return Run(RunConfig{
		Cluster:      cluster,
		Workload:     wl,
		Concurrency:  concurrency,
		OpsPerClient: opsPerClient,
	})
}
