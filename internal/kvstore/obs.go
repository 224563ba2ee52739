package kvstore

import "ortoa/internal/obs"

// storeMetrics is the store's durability instrumentation: WAL write
// volume and error state, fsync latency, snapshot timings, and
// checkpoint activity.
type storeMetrics struct {
	walAppends      *obs.Counter
	walAppendErrors *obs.Counter
	walFsync        *obs.Histogram
	snapshotWrite   *obs.Histogram
	snapshotLoad    *obs.Histogram

	checkpointTime   *obs.Histogram
	checkpoints      *obs.Counter
	checkpointErrors *obs.Counter
}

// Instrument registers the store's metrics (ortoa_kvstore_*) with reg:
// live record count and byte footprint (the quantity §5.3.1 prices),
// WAL queue depth, append/fsync activity and failure state, recovery
// replay volume, the replay debt that triggers checkpoints, snapshot
// and checkpoint timings. It also registers a
// kvstore_wal health check so a poisoned journal flips /healthz to
// 503. A nil registry leaves the store uninstrumented at zero cost.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("ortoa_kvstore_records", "live keys in the store",
		func() int64 { return int64(s.Len()) })
	reg.GaugeFunc("ortoa_kvstore_bytes", "total key+value bytes resident", s.Bytes)
	reg.GaugeFunc("ortoa_kvstore_wal_buffered_bytes", "journal bytes buffered but not yet flushed to the WAL file", s.walBuffered)
	reg.GaugeFunc("ortoa_kvstore_wal_failed", "1 when the WAL has a sticky failure and the store is rejecting journaled mutations",
		func() int64 {
			if s.WALErr() != nil {
				return 1
			}
			return 0
		})
	reg.CounterFunc("ortoa_kvstore_wal_replayed_records_total", "log records replayed into this store at recovery", s.WALReplayed)
	reg.GaugeFunc("ortoa_kvstore_checkpoint_generation", "committed checkpoint generation",
		func() int64 { return int64(s.Generation()) })
	reg.GaugeFunc("ortoa_kvstore_wal_bytes", "journal bytes since the last checkpoint, what a restart replays; the store checkpoints once they exceed the last snapshot's size (and 1 MiB)", s.walBytes)
	reg.Health("kvstore_wal", s.WALErr)
	s.metrics.Store(&storeMetrics{
		walAppends:      reg.Counter("ortoa_kvstore_wal_appends_total", "mutations journaled to the WAL"),
		walAppendErrors: reg.Counter("ortoa_kvstore_wal_append_errors_total", "journal writes that failed (sticky; see wal_failed)"),
		walFsync:        reg.Histogram("ortoa_kvstore_wal_fsync_seconds", "WAL flush+fsync latency (one sample per group commit)"),
		snapshotWrite:   reg.Histogram("ortoa_kvstore_snapshot_write_seconds", "full-store snapshot serialization time"),
		snapshotLoad:    reg.Histogram("ortoa_kvstore_snapshot_load_seconds", "snapshot load time"),

		checkpointTime:   reg.Histogram("ortoa_kvstore_checkpoint_seconds", "checkpoint duration: WAL rotation + snapshot + manifest commit"),
		checkpoints:      reg.Counter("ortoa_kvstore_checkpoints_total", "checkpoints committed"),
		checkpointErrors: reg.Counter("ortoa_kvstore_checkpoint_errors_total", "checkpoints that failed; the next starts once the log has grown by another snapshot's worth"),
	})
}

// walBuffered reports journal bytes sitting in the bufio layer — the
// WAL queue depth an operator watches to size fsync cadence.
func (s *Store) walBuffered() int64 {
	w, _ := s.attached()
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return int64(w.w.Buffered())
}
