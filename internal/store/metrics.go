package store

import (
	"sync"
	"time"

	"ldpmarginals/internal/metrics"
)

// storeInstruments is the durability layer's always-on instrumentation.
// Allocated unconditionally at Open so the committer and ingest paths
// update plain atomics with no nil checks; a registry attaches later via
// RegisterMetrics (a store that is never registered just counts into
// unexported atomics).
type storeInstruments struct {
	walWrite     *metrics.Histogram // coalesced write syscall latency
	walFsync     *metrics.Histogram // fsync latency (group commit, interval tick, rotation)
	walAppended  *metrics.Counter   // bytes written to segments
	walRotations *metrics.Counter   // completed segment rotations
	walRevives   *metrics.Counter   // successful committer revivals after a failure
	appendWait   *metrics.Histogram // Ingest's hand-off wait (incl. group commit under fsync=always)
	snapshotDur  *metrics.Histogram // full snapshot/compaction latency
	snapshots    *metrics.Counter   // successful snapshots
}

func newStoreInstruments() *storeInstruments {
	return &storeInstruments{
		walWrite:     metrics.NewHistogram(metrics.DurationBuckets()),
		walFsync:     metrics.NewHistogram(metrics.DurationBuckets()),
		walAppended:  metrics.NewCounter(),
		walRotations: metrics.NewCounter(),
		walRevives:   metrics.NewCounter(),
		appendWait:   metrics.NewHistogram(metrics.DurationBuckets()),
		snapshotDur:  metrics.NewHistogram(metrics.DurationBuckets()),
		snapshots:    metrics.NewCounter(),
	}
}

// statusCache amortizes Store.Status — which walks the data directory —
// across the several scrape-time gauges derived from it.
type statusCache struct {
	mu   sync.Mutex
	at   time.Time
	st   Status
	once bool
}

func (c *statusCache) get(s *Store) Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.once || time.Since(c.at) > 500*time.Millisecond {
		c.st = s.Status()
		c.at = time.Now()
		c.once = true
	}
	return c.st
}

// WALErr returns the committer's first write/sync failure, or nil while
// the log is healthy. One atomic load — cheap enough for readiness
// probes.
func (s *Store) WALErr() error { return s.walFailure() }

// RegisterMetrics attaches the store's instrumentation to r under the
// ldp_wal_* / ldp_store_* families. Derived gauges read a cached Status
// (the directory walk runs at most twice per second regardless of
// scrape fan-in).
func (s *Store) RegisterMetrics(r *metrics.Registry) {
	ins := s.ins
	r.MustRegister("ldp_wal_write_seconds", "Latency of coalesced WAL write syscalls.", nil, ins.walWrite)
	r.MustRegister("ldp_wal_fsync_seconds", "Latency of WAL fsyncs (group commit, interval tick, rotation).", nil, ins.walFsync)
	r.MustRegister("ldp_wal_appended_bytes_total", "Bytes appended to WAL segments.", nil, ins.walAppended)
	r.MustRegister("ldp_wal_rotations_total", "Completed WAL segment rotations.", nil, ins.walRotations)
	r.MustRegister("ldp_wal_revives_total", "Committer revivals after a sticky WAL failure (Store.Recover).", nil, ins.walRevives)
	r.MustRegister("ldp_wal_append_wait_seconds", "Time an ingest spends handing its group to the committer (includes the shared fsync under fsync=always).", nil, ins.appendWait)
	r.MustRegister("ldp_store_snapshot_seconds", "Latency of counter snapshots (state marshal + rotate + atomic write + prune).", nil, ins.snapshotDur)
	r.MustRegister("ldp_store_snapshots_total", "Successful counter snapshots.", nil, ins.snapshots)

	cache := new(statusCache)
	r.MustGaugeFunc("ldp_wal_segments", "Live WAL segment files (including the fallback generation).", nil,
		func() float64 { return float64(cache.get(s).Segments) })
	r.MustGaugeFunc("ldp_wal_bytes", "Bytes held by live WAL segments.", nil,
		func() float64 { return float64(cache.get(s).WALBytes) })
	r.MustGaugeFunc("ldp_store_since_snapshot_reports", "Reports appended after the newest snapshot.", nil,
		func() float64 { return float64(s.sinceSnap.Load()) })
	r.MustGaugeFunc("ldp_store_snapshot_reports", "Report count covered by the newest snapshot.", nil,
		func() float64 { return float64(cache.get(s).SnapshotReports) })
	r.MustGaugeFunc("ldp_store_wal_failed", "1 once the WAL committer has hit a sticky write/sync failure.", nil,
		func() float64 {
			if s.walFailure() != nil {
				return 1
			}
			return 0
		})
	// Recovery facts are fixed at Open; exposing them lets dashboards
	// correlate restart cost with WAL length.
	r.MustGaugeFunc("ldp_store_recovered_reports", "Reports reconstructed at Open (snapshot + WAL replay).", nil,
		func() float64 { return float64(s.recStats.Reports) })
	r.MustGaugeFunc("ldp_store_replayed_reports", "Reports replayed from the WAL tail at Open.", nil,
		func() float64 { return float64(s.recStats.ReportsReplayed) })
	r.MustGaugeFunc("ldp_store_torn_truncations", "Torn final records truncated during recovery.", nil,
		func() float64 { return float64(s.recStats.TornTailTruncations) })
}
