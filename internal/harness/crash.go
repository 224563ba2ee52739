package harness

import (
	"fmt"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

var crashClaim = Claim{Statement: "across repeated server kill/restarts under group commit no acknowledged write is lost and every store checkpoints on its own; under a lossy fsync policy every rolled-back key is refused once and then re-converges"}

// Crash runs the drill workload (drill.go) while shard servers are
// repeatedly crash-killed — no flush, open file handles die, unsynced
// disk state settles per a seeded crash plan with torn final writes —
// and recovered from their state directories, which the stores
// checkpoint on their own as their logs grow, racing the crashes. It
// is the end-to-end check of the durability
// layer: the WAL's group-commit contract (§ DESIGN.md 10) promises
// that an acknowledged write survives any crash, and this experiment
// is where the repo demonstrates it, across dozens of kill/restart
// cycles over one set of acceptable values.
//
// On top of the drill's two invariants it pins re-convergence: a round
// cut by a crash leaves its key's counter behind the record if it ran,
// and the key's next stale answer must rebase it, so the final audit
// reads all keys cleanly. And every shard's store must have
// checkpointed on its own: no interval is configured, so a generation
// still at 0 means the trigger never fired.
// A shard is down for part of every cycle, so any definite failure
// short of tampering is a skipped operation here.
//
// A second, smaller phase reruns the crash machinery at the lossy end
// of the policy spectrum (SyncNever): acknowledged writes since the
// last checkpoint are legitimately rolled back. The proxy must refuse
// each rolled-back key exactly once ("server rolled back") and rebase
// it, after which reads return the durable (checkpointed) value and the
// schedule accepts fresh traffic.
func Crash(opt Options) (*Table, error) {
	t := &Table{
		ID:    "crash",
		Title: "Repeated kill/restart under durable-on-ack (LBL, group-commit WAL, self-checkpointing state directories)",
		Columns: []string{"phase", "ops", "ok", "ambiguous", "down", "restarts",
			"wal-replayed", "rebased/behind"},
	}

	// Never smaller than the -quick scale: every shard must journal past
	// its store's 1 MiB checkpoint floor (about 95 accesses at 160 B) for
	// the generation check below to test the trigger.
	workers, ops := max(opt.conc(), 8), max(opt.ops(), 3)
	const keysPerWorker = 2
	const shards = 2
	cycles := 50
	if opt.Quick {
		cycles = 12
	}
	keys, data := drillData("crash", workers*keysPerWorker, paperValueSize, 0)

	cluster, err := drillCluster(data, Config{
		Link:          netsim.Link{RTT: 500 * time.Microsecond},
		Shards:        shards,
		ConnsPerShard: 4,
		Transport: transport.Options{
			CallTimeout:      250 * time.Millisecond,
			Retry:            transport.RetryPolicy{Attempts: 8, Backoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
			ReconnectBackoff: time.Millisecond,
		},
		Durability: &DurabilityConfig{
			Policy:        kvstore.SyncGroupCommit,
			Seed:          1,
			TornWriteProb: 0.7,
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	reg := cluster.cfg.Metrics

	d := newDrill(cluster, keys, workers, 2, outcomeFailed)
	for cycle := 0; cycle < cycles; cycle++ {
		// Kill a shard mid-cycle, while the workload is in flight.
		d.at(0, func() error {
			time.Sleep(2 * time.Millisecond)
			return cluster.Restart(cycle % shards)
		})
		if err := d.run(ops); err != nil {
			return nil, fmt.Errorf("harness: crash cycle %d: %w", cycle, err)
		}
	}

	// Final audit on live servers. Residual counter desync settles
	// through these reads.
	audited, err := d.audit()
	if err != nil {
		return nil, fmt.Errorf("harness: crash audit: %w", err)
	}

	t.AddRow("workload", fmt.Sprint(d.totals.ops), fmt.Sprint(d.totals.ok), fmt.Sprint(d.totals.amb),
		fmt.Sprint(d.totals.failed), fmt.Sprint(cycles), fmt.Sprint(cluster.WALReplayedTotal()),
		fmt.Sprintf("%d/%d", reg.Value("ortoa_lbl_reconciled_keys_total"), reg.Value("ortoa_lbl_rolled_back_keys_total")))
	t.AddRow("audit", fmt.Sprint(audited), fmt.Sprint(audited), "0", "0", "0", "-", "-")
	disk := cluster.DiskStats()
	gens := cluster.Generations()
	for i, g := range gens {
		if g == 0 {
			return nil, fmt.Errorf("harness: crash: shard %d never checkpointed (generations %v): its store's trigger did not fire", i, gens)
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("audit passed: %d keys consistent after %d crash/restart cycles — zero acknowledged writes lost, zero duplicate applications, all counters re-converged", audited, cycles),
		fmt.Sprintf("disk: %d crashes, %d torn writes, %d unsynced writes dropped, %d dir entries rolled back; generations the stores checkpointed to on their own %v",
			disk.Crashes, disk.TornWrites, disk.DroppedWrites, disk.DroppedOps, gens),
		"group commit leaves nothing acknowledged unsynced at a crash by construction; \"down\" ops failed fast against a killed shard, \"ambiguous\" ops stay in the audit's acceptable sets, \"rebased\" counts keys whose counter moved up to a stale answer's verifier and \"behind\" stale answers below the counter")
	if err := crashRollbackPhase(t); err != nil {
		return nil, err
	}
	return t, nil
}

// crashRollbackPhase crashes a SyncNever shard holding
// acknowledged-but-unsynced writes: the server rolls back to the last
// checkpoint, and the proxy must refuse each key's first access after
// it — a rolled-back value is never served silently — and serve every
// later one. It appends its row and note to t.
func crashRollbackPhase(t *Table) error {
	// 24 records of ≈11 KB stay under the store's 1 MiB checkpoint floor:
	// a checkpoint would make them durable, leaving nothing to roll back.
	const rbKeys = 8
	const rbWrites = 3
	keys, data := drillData("rollback", rbKeys, paperValueSize, 7)
	cluster, err := drillCluster(data, Config{
		Link:          netsim.Loopback,
		ConnsPerShard: 2,
		Transport: transport.Options{
			CallTimeout:      250 * time.Millisecond,
			Retry:            transport.RetryPolicy{Attempts: 8, Backoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
			ReconnectBackoff: time.Millisecond,
		},
		Durability: &DurabilityConfig{Policy: kvstore.SyncNever, Seed: 2},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	reg := cluster.cfg.Metrics
	// Make the loaded database the durable baseline; everything after
	// this checkpoint is acknowledged but unsynced.
	if err := cluster.Checkpoint(0); err != nil {
		return fmt.Errorf("harness: rollback baseline checkpoint: %w", err)
	}
	ops := 0
	for _, k := range keys {
		for i := 0; i < rbWrites; i++ {
			if _, err := cluster.Access(core.OpWrite, k, chaosValue(paperValueSize, uint64(i), 8)); err != nil {
				return fmt.Errorf("harness: rollback write %q: %w", k, err)
			}
			ops++
		}
	}
	if err := cluster.Restart(0); err != nil {
		return fmt.Errorf("harness: rollback restart: %w", err)
	}
	for _, k := range keys {
		before := reg.Value("ortoa_lbl_rolled_back_keys_total")
		got, err := readBack(cluster, k)
		if err != nil {
			return fmt.Errorf("harness: rollback audit: %q did not re-converge: %w", k, err)
		}
		if refused := reg.Value("ortoa_lbl_rolled_back_keys_total") - before; refused != 1 {
			return fmt.Errorf("harness: rollback audit: %q was refused %d times before it read, want once", k, refused)
		}
		ops++
		if string(got) != string(data[k]) {
			return fmt.Errorf("harness: rollback audit: %q = %x, want the checkpointed value (rollback must land on the durable baseline)", k, got[:4])
		}
		// The schedule must accept fresh traffic after the rebase.
		nv := chaosValue(paperValueSize, uint64(len(k)), 9)
		if _, err := cluster.Access(core.OpWrite, k, nv); err != nil {
			return fmt.Errorf("harness: rollback post-write %q: %w", k, err)
		}
		got, err = cluster.Access(core.OpRead, k, nil)
		if err != nil || string(got) != string(nv) {
			return fmt.Errorf("harness: rollback post-read %q: %v", k, err)
		}
		ops += 2
	}
	behind := reg.Value("ortoa_lbl_rolled_back_keys_total")
	t.AddRow("rollback", fmt.Sprint(ops), fmt.Sprint(ops), "0", "0", "1",
		fmt.Sprint(cluster.WALReplayedTotal()),
		fmt.Sprintf("%d/%d", reg.Value("ortoa_lbl_reconciled_keys_total"), behind))
	t.Notes = append(t.Notes, fmt.Sprintf("rollback phase (SyncNever): %d acknowledged-but-unsynced writes rolled back by a crash as the policy permits; each of the %d keys was refused once as behind, then read its checkpointed value and accepted fresh traffic",
		rbKeys*rbWrites, behind))
	return nil
}
