//! Observability snapshots of the sharded ingest runtime.

use crate::dedupe::DedupStats;
use crate::obs::{GaugeId, MetricsRegistry};

/// Point-in-time state of one stream slot.
#[derive(Debug, Clone)]
pub struct StreamMetrics {
    /// Slot index (admission order).
    pub slot: usize,
    /// The identifier the stream was admitted under.
    pub workload_id: String,
    /// The stream is still active (not closed).
    pub active: bool,
    /// Segments ingested so far.
    pub segments_processed: usize,
    /// Ingress lag: accepted segments not yet processed — queued in the
    /// mailbox, which dispatches at [`MAILBOX_BATCH`](super::MAILBOX_BATCH)
    /// (so this stays below it between pushes, a reorder-gate release
    /// aside), or held by the reorder gate. Lag is not the epoch bound:
    /// a stream may still process up to one epoch ahead of its siblings.
    pub lag_segments: usize,
    /// Current buffer fill in bytes (0 once closed).
    pub buffer_bytes: f64,
    /// Outstanding backlog work in core-seconds (0 once closed).
    pub backlog_work: f64,
    /// Cloud dollars this stream has spent.
    pub cloud_spent_usd: f64,
    /// Throughput-guarantee violations observed so far.
    pub overflows: usize,
    /// Dedup counters for this stream (all zero when dedup is off).
    pub dedup: DedupStats,
}

/// Point-in-time snapshot of the whole runtime
/// ([`crate::runtime::IngestRuntime::metrics`]).
#[derive(Debug, Clone)]
pub struct RuntimeMetrics {
    /// Worker shards serving the streams.
    pub shards: usize,
    /// Planning epochs completed (joint-LP barriers crossed).
    pub epoch: usize,
    /// Times the joint LP has run (admissions + epoch barriers).
    pub joint_plans: usize,
    /// Unspent cloud credits across the active streams' current leases.
    pub wallet_left_usd: f64,
    /// Segments ingested across all streams.
    pub segments_processed: usize,
    /// Wall-clock seconds since the runtime was created.
    pub wall_secs: f64,
    /// Aggregate ingest throughput, segments per wall-clock second.
    pub segs_per_sec: f64,
    /// Dedup counters aggregated over every stream (all zero when dedup is
    /// off): lookups, hits, bytes and spend saved.
    pub dedup: DedupStats,
    /// Entries currently held by the shared dedup cache.
    pub dedup_cache_entries: usize,
    /// Per-stream state, in admission order.
    pub streams: Vec<StreamMetrics>,
}

impl RuntimeMetrics {
    /// Total ingress lag across active streams, segments. Closed slots are
    /// excluded: a settled stream can retain its final lag reading in its
    /// slot, and counting it would overstate live ingress pressure under
    /// open/close churn.
    pub fn total_lag(&self) -> usize {
        self.streams
            .iter()
            .filter(|s| s.active)
            .map(|s| s.lag_segments)
            .sum()
    }

    /// Total cloud spend across all streams, dollars.
    pub fn total_cloud_usd(&self) -> f64 {
        self.streams.iter().map(|s| s.cloud_spent_usd).sum()
    }

    /// Project this snapshot onto the registry's gauge section. This is
    /// the **single** mapping between `RuntimeMetrics` and the
    /// [`MetricsRegistry`]: the runtime calls it on every
    /// [`metrics()`](crate::runtime::IngestRuntime::metrics) snapshot, so
    /// the two exposition surfaces cannot drift apart. The
    /// non-deterministic rate fields (`wall_secs`, `segs_per_sec`) are
    /// deliberately not mirrored — registry snapshots stay deterministic.
    pub fn sync_registry(&self, reg: &MetricsRegistry) {
        reg.set_gauge(GaugeId::Epoch, self.epoch as f64);
        reg.set_gauge(GaugeId::JointPlans, self.joint_plans as f64);
        reg.set_gauge(
            GaugeId::ActiveStreams,
            self.streams.iter().filter(|s| s.active).count() as f64,
        );
        reg.set_gauge(GaugeId::SegmentsProcessed, self.segments_processed as f64);
        reg.set_gauge(GaugeId::WalletLeftUsd, self.wallet_left_usd);
        reg.set_gauge(GaugeId::TotalLagSegments, self.total_lag() as f64);
        reg.set_gauge(GaugeId::DedupCacheEntries, self.dedup_cache_entries as f64);
    }
}
