//! The deterministic metrics registry: pre-registered counters, gauges,
//! and fixed-bucket log-scale latency histograms.
//!
//! Every metric is a fixed slot in a flat array, addressed by a
//! compile-time id ([`CounterId`] / [`GaugeId`] / [`HistId`]) — recording
//! is one relaxed atomic add, with no map lookup, no allocation, and no
//! lock, which is what lets the hot path stay inside the CI throughput
//! gate with recording enabled. The id enums double as the exposition
//! order: a [`MetricsSnapshot`] always lists every metric, in declaration
//! order, so two snapshots of identical state are identical values (and
//! identical encodings — the wire test relies on it).
//!
//! ## Histogram bucket scheme
//!
//! Latencies are recorded in nanoseconds into 64 power-of-two buckets:
//! bucket `i` holds durations in `[2^i, 2^(i+1))` ns (bucket 0 also
//! absorbs 0 ns). The bounds are pinned by the scheme itself — they never
//! depend on the data — so quantile estimates ([`HistogramSnapshot::quantile_ns`])
//! are stable across runs and machines: p50/p90/p99 land on a bucket's
//! lower bound, never on an interpolated value that would drift with load.
//!
//! Recording never influences a decision anywhere in the engine — see the
//! crate-level invariant in [`super`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::offline::codec::{Dec, DecodeResult, Enc};

/// Power-of-two latency buckets per histogram (`[2^i, 2^(i+1))` ns).
pub const HIST_BUCKETS: usize = 64;

macro_rules! metric_ids {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every id, in declaration (= exposition) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of ids (the registry's slot count for this kind).
            pub const COUNT: usize = Self::ALL.len();

            /// The stable exposition name.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

metric_ids! {
    /// Monotonic event counters.
    pub enum CounterId {
        /// Segments pushed through a session on a shard worker.
        SessionPushes => "session_pushes",
        /// Epoch batches fanned out across the shard pool.
        BatchDispatches => "batch_dispatches",
        /// Epoch barriers crossed (settle + joint replan + broadcast).
        EpochBarriers => "epoch_barriers",
        /// Joint LP solves — one threshold walk per joint plan, so this
        /// equals the `joint_plans` gauge.
        LpSolvesCold => "lp_solves_cold",
        /// Records appended to the write-ahead journal.
        WalAppends => "wal_appends",
        /// Journal fsyncs (checkpoint points).
        WalFsyncs => "wal_fsyncs",
        /// Envelopes enqueued into ingress mailboxes.
        MailboxEnqueues => "mailbox_enqueues",
        /// Envelopes drained out of ingress mailboxes.
        MailboxDrains => "mailbox_drains",
        /// Cross-stream dedup cache lookups.
        DedupLookups => "dedup_lookups",
        /// Cross-stream dedup cache hits.
        DedupHits => "dedup_hits",
        /// Dedup hits rejected as stale (aged past the policy horizon).
        DedupStale => "dedup_stale",
        /// Requests serviced by the network front-end.
        NetRequests => "net_requests",
        /// Stream admissions accepted.
        AdmissionsAccepted => "admissions_accepted",
        /// Stream admissions rejected (fair share, capacity).
        AdmissionsRejected => "admissions_rejected",
        /// Pushes rejected with typed mailbox backpressure.
        BackpressureRejections => "backpressure_rejections",
        /// Journal records re-driven by crash recovery.
        ReplayedRecords => "replayed_records",
        /// Injected worker crashes (chaos harness).
        ChaosCrashes => "chaos_crashes",
        /// Injected wallet-refill outages (chaos harness).
        ChaosOutages => "chaos_outages",
        /// Admissions deferred by the flash-crowd cap (retryable).
        AdmissionsDeferred => "admissions_deferred",
        /// Arrivals rejected behind the reorder watermark.
        LateSegmentRejections => "late_segment_rejections",
        /// Arrivals held by a reorder gate awaiting a gap.
        ReorderHolds => "reorder_holds",
    }
}

metric_ids! {
    /// Point-in-time gauges. The gauge section of the registry is *defined*
    /// as the image of [`crate::runtime::RuntimeMetrics`] under
    /// [`RuntimeMetrics::sync_registry`](crate::runtime::RuntimeMetrics::sync_registry)
    /// — one mapping function, called on every metrics snapshot, so the two
    /// views cannot drift.
    pub enum GaugeId {
        /// Planning epochs completed.
        Epoch => "epoch",
        /// Times the joint LP has run.
        JointPlans => "joint_plans",
        /// Streams currently active.
        ActiveStreams => "active_streams",
        /// Segments ingested across all streams.
        SegmentsProcessed => "segments_processed",
        /// Unspent cloud credits across current leases, dollars.
        WalletLeftUsd => "wallet_left_usd",
        /// Ingress lag summed over active streams, segments.
        TotalLagSegments => "total_lag_segments",
        /// Entries currently held by the shared dedup cache.
        DedupCacheEntries => "dedup_cache_entries",
    }
}

metric_ids! {
    /// Latency histograms (one per instrumented hot-path stage).
    pub enum HistId {
        /// Per-segment session push on a shard worker.
        SessionPush => "session_push",
        /// One epoch batch fan-out across the shard pool.
        BatchDispatch => "batch_dispatch",
        /// Barrier phase: close-settling + forecast gather.
        BarrierSettle => "barrier_settle",
        /// Barrier phase: the joint LP solve (one threshold walk).
        BarrierLpSolveCold => "barrier_lp_solve_cold",
        /// Barrier phase: plan install + core/wallet re-split.
        BarrierWalletResplit => "barrier_wallet_resplit",
        /// Barrier phase: dedup publication + mailbox re-bounding.
        BarrierBroadcast => "barrier_broadcast",
        /// One journal record append (write syscall).
        WalAppend => "wal_append",
        /// One journal fsync (checkpoint point).
        WalFsync => "wal_fsync",
        /// One mailbox drain into a worker's batch.
        MailboxDrain => "mailbox_drain",
        /// One dedup cache consult on the session push path.
        DedupLookup => "dedup_lookup",
        /// One network request serviced end to end.
        NetRequest => "net_request",
    }
}

/// A fixed-bucket log-scale latency histogram (see the [module
/// docs](crate::obs) for the bucket scheme). All operations are lock-free
/// relaxed atomics; a concurrent snapshot is a consistent-enough point in
/// time for exposition (the engine never reads it back).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HIST_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket holding a duration of `ns` nanoseconds.
    pub fn bucket_index(ns: u64) -> usize {
        63 - ns.max(1).leading_zeros() as usize
    }

    /// Lower bound of bucket `i`, nanoseconds.
    pub fn bucket_lower_ns(i: usize) -> u64 {
        1u64 << i
    }

    /// Record one observation of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.record_many_ns(ns, 1);
    }

    /// Record `n` observations of `ns` nanoseconds each — the batch path's
    /// one-atomic-add-per-bucket amortization (a worker times a whole
    /// drained batch and books the per-item mean `n` times).
    pub fn record_many_ns(&self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_index(ns)].fetch_add(n, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(ns.saturating_mul(n), Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded durations, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }
}

/// The pre-registered metrics registry. See the [module docs](crate::obs).
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; CounterId::COUNT],
    gauges: [AtomicU64; GaugeId::COUNT],
    hists: [Histogram; HistId::COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A registry with every metric registered and zeroed.
    pub fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0f64.to_bits())),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Increment a counter by one.
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increment a counter by `n`.
    pub fn add(&self, id: CounterId, n: u64) {
        if n > 0 {
            self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counter value.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    /// Set a gauge (stored as raw `f64` bits, so values survive bitwise).
    pub fn set_gauge(&self, id: GaugeId, v: f64) {
        self.gauges[id as usize].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current gauge value.
    pub fn gauge(&self, id: GaugeId) -> f64 {
        f64::from_bits(self.gauges[id as usize].load(Ordering::Relaxed))
    }

    /// Record one duration into a histogram.
    pub fn record(&self, id: HistId, d: Duration) {
        self.hist(id).record_ns(duration_ns(d));
    }

    /// Record a batch of `n` items that together took `total`: books the
    /// per-item mean `n` times with one atomic add per field.
    pub fn record_split(&self, id: HistId, total: Duration, n: usize) {
        if n == 0 {
            return;
        }
        self.hist(id)
            .record_many_ns(duration_ns(total) / n as u64, n as u64);
    }

    /// The histogram behind an id.
    pub fn hist(&self, id: HistId) -> &Histogram {
        &self.hists[id as usize]
    }

    /// A point-in-time value snapshot of every metric, in declaration
    /// order. Two snapshots of identical registry state are equal values
    /// with equal encodings.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: CounterId::ALL
                .iter()
                .map(|&id| (id.name().to_string(), self.counter(id)))
                .collect(),
            gauges: GaugeId::ALL
                .iter()
                .map(|&id| (id.name().to_string(), self.gauge(id)))
                .collect(),
            histograms: HistId::ALL
                .iter()
                .map(|&id| {
                    let h = self.hist(id);
                    HistogramSnapshot {
                        name: id.name().to_string(),
                        count: h.count(),
                        sum_ns: h.sum_ns(),
                        buckets: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                    }
                })
                .collect(),
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A snapshotted histogram: total count, total nanoseconds, and the 64
/// pinned power-of-two bucket counts.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The histogram's exposition name ([`HistId::name`]).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded durations, nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket counts (`buckets[i]` covers `[2^i, 2^(i+1))` ns).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Quantile estimate: the **lower bound** of the bucket containing the
    /// `q`-quantile observation, nanoseconds (0 for an empty histogram).
    /// Pinned bucket bounds make this stable across runs: p99 of the same
    /// distribution is the same number on every machine.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Histogram::bucket_lower_ns(i);
            }
        }
        Histogram::bucket_lower_ns(HIST_BUCKETS - 1)
    }

    /// Mean observation, nanoseconds (0 for an empty histogram).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// A point-in-time value snapshot of a [`MetricsRegistry`] — the payload
/// of the wire protocol's `Metrics` reply and the input to
/// [`render_prometheus`](Self::render_prometheus).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in [`CounterId::ALL`] order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, in [`GaugeId::ALL`] order.
    pub gauges: Vec<(String, f64)>,
    /// One snapshot per histogram, in [`HistId::ALL`] order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Look a counter up by exposition name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look a gauge up by exposition name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look a histogram up by exposition name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render the snapshot in the Prometheus text exposition format.
    /// Counters become `skyscraper_<name>_total`, gauges
    /// `skyscraper_<name>`, histograms `skyscraper_<name>_seconds` with
    /// cumulative `_bucket{le="..."}` lines at the pinned power-of-two
    /// bounds (trailing empty buckets elided, `+Inf` always present).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE skyscraper_{name}_total counter");
            let _ = writeln!(out, "skyscraper_{name}_total {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE skyscraper_{name} gauge");
            let _ = writeln!(out, "skyscraper_{name} {v}");
        }
        for h in &self.histograms {
            let name = &h.name;
            let _ = writeln!(out, "# TYPE skyscraper_{name}_seconds histogram");
            let last = h.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().take(last).enumerate() {
                cum += c;
                let le = Histogram::bucket_lower_ns(i + 1) as f64 / 1e9;
                let _ = writeln!(out, "skyscraper_{name}_seconds_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(
                out,
                "skyscraper_{name}_seconds_bucket{{le=\"+Inf\"}} {}",
                h.count
            );
            let _ = writeln!(
                out,
                "skyscraper_{name}_seconds_sum {}",
                h.sum_ns as f64 / 1e9
            );
            let _ = writeln!(out, "skyscraper_{name}_seconds_count {}", h.count);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Wire codec (used by the `Metrics` reply in `serve::proto`).
// ---------------------------------------------------------------------

pub(crate) fn enc_snapshot(e: &mut Enc, s: &MetricsSnapshot) {
    e.usize(s.counters.len());
    for (name, v) in &s.counters {
        e.str(name);
        e.u64(*v);
    }
    e.usize(s.gauges.len());
    for (name, v) in &s.gauges {
        e.str(name);
        e.f64(*v);
    }
    e.usize(s.histograms.len());
    for h in &s.histograms {
        e.str(&h.name);
        e.u64(h.count);
        e.u64(h.sum_ns);
        e.usize(h.buckets.len());
        for &b in &h.buckets {
            e.u64(b);
        }
    }
}

pub(crate) fn dec_snapshot(d: &mut Dec<'_>) -> DecodeResult<MetricsSnapshot> {
    let nc = d.len(9, "metric counters")?;
    let counters = (0..nc)
        .map(|_| Ok((d.str("counter name")?, d.u64("counter value")?)))
        .collect::<DecodeResult<Vec<_>>>()?;
    let ng = d.len(9, "metric gauges")?;
    let gauges = (0..ng)
        .map(|_| Ok((d.str("gauge name")?, d.f64("gauge value")?)))
        .collect::<DecodeResult<Vec<_>>>()?;
    let nh = d.len(25, "metric histograms")?;
    let histograms = (0..nh)
        .map(|_| {
            let name = d.str("histogram name")?;
            let count = d.u64("histogram count")?;
            let sum_ns = d.u64("histogram sum")?;
            let nb = d.len(8, "histogram buckets")?;
            let buckets = (0..nb)
                .map(|_| d.u64("bucket count"))
                .collect::<DecodeResult<Vec<_>>>()?;
            Ok(HistogramSnapshot {
                name,
                count,
                sum_ns,
                buckets,
            })
        })
        .collect::<DecodeResult<Vec<_>>>()?;
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_pinned_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        for i in 0..HIST_BUCKETS {
            let lo = Histogram::bucket_lower_ns(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(lo.saturating_add(lo - 1)), i);
        }
    }

    #[test]
    fn quantiles_land_on_bucket_lower_bounds() {
        let reg = MetricsRegistry::new();
        // 90 fast (1 µs bucket), 9 medium (1 ms), 1 slow (1 s).
        reg.hist(HistId::SessionPush).record_many_ns(1_000, 90);
        reg.hist(HistId::SessionPush).record_many_ns(1_000_000, 9);
        reg.hist(HistId::SessionPush).record_ns(1_000_000_000);
        let snap = reg.snapshot();
        let h = snap.histogram("session_push").expect("registered");
        assert_eq!(h.count, 100);
        assert_eq!(h.quantile_ns(0.5), 512); // bucket of 1 000 ns = [512, 1024)
        assert_eq!(h.quantile_ns(0.90), 512);
        assert_eq!(h.quantile_ns(0.95), 524_288); // bucket of 1 000 000 ns
        assert_eq!(h.quantile_ns(0.99), 524_288);
        assert_eq!(h.quantile_ns(1.0), 536_870_912); // bucket of 1 s
        assert_eq!(h.quantile_ns(0.0), 512);
        let empty = snap.histogram("wal_fsync").expect("registered");
        assert_eq!(empty.quantile_ns(0.99), 0);
    }

    #[test]
    fn record_split_books_the_per_item_mean() {
        let reg = MetricsRegistry::new();
        reg.record_split(HistId::BatchDispatch, Duration::from_micros(120), 12);
        let h = reg.hist(HistId::BatchDispatch);
        assert_eq!(h.count(), 12);
        assert_eq!(h.sum_ns(), 120_000);
        reg.record_split(HistId::BatchDispatch, Duration::from_micros(7), 0);
        assert_eq!(h.count(), 12, "empty batches record nothing");
    }

    #[test]
    fn snapshot_roundtrips_bitwise_and_compares_equal() {
        let reg = MetricsRegistry::new();
        reg.inc(CounterId::SessionPushes);
        reg.add(CounterId::MailboxEnqueues, 41);
        reg.set_gauge(GaugeId::WalletLeftUsd, 0.1 + 0.2); // non-round f64
        reg.record(HistId::WalAppend, Duration::from_nanos(777));
        let snap = reg.snapshot();
        let mut e = Enc::new();
        enc_snapshot(&mut e, &snap);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_snapshot(&mut d).expect("decode");
        assert!(d.finished());
        assert_eq!(snap, back);
        let mut e2 = Enc::new();
        enc_snapshot(&mut e2, &back);
        assert_eq!(bytes, e2.into_bytes(), "codec is canonical");
        // Same registry state → identical snapshot values.
        assert_eq!(snap, reg.snapshot());
    }

    /// Saturation boundaries: observations at the top of the `u64` range
    /// and out-of-range `q` values must clamp to the documented bucket
    /// lower bounds — never panic, index past the bucket array, or
    /// overflow the quantile target arithmetic.
    #[test]
    fn quantile_clamps_at_bucket_saturation() {
        let reg = MetricsRegistry::new();
        let h = reg.hist(HistId::SessionPush);
        h.record_many_ns(u64::MAX, 3); // top bucket; sum saturates, no panic
        h.record_ns(u64::MAX);
        let snap = reg.snapshot();
        let h = snap.histogram("session_push").expect("registered");
        let top = Histogram::bucket_lower_ns(HIST_BUCKETS - 1);
        assert_eq!(h.count, 4);
        assert_eq!(*h.buckets.last().expect("64 buckets"), 4);
        assert_eq!(h.quantile_ns(0.5), top);
        assert_eq!(h.quantile_ns(1.0), top);
        // Out-of-range q clamps into [0, 1] instead of scanning past the
        // bucket array (q > 1) or below the first observation (q < 0).
        assert_eq!(h.quantile_ns(2.0), top);
        assert_eq!(h.quantile_ns(-1.0), top);
    }

    /// Relaxed atomics can snapshot `count` ahead of the bucket counts; a
    /// scan that exhausts every bucket short of the target must return the
    /// top bucket's documented lower bound, not panic or read out of range.
    #[test]
    fn quantile_on_a_racy_snapshot_clamps_to_the_top_bucket() {
        let racy = HistogramSnapshot {
            name: "racy".into(),
            count: 5,
            sum_ns: 0,
            buckets: vec![0; HIST_BUCKETS],
        };
        let top = Histogram::bucket_lower_ns(HIST_BUCKETS - 1);
        assert_eq!(racy.quantile_ns(0.99), top);
        // Degenerate q values (including NaN) fall through the same clamp.
        assert_eq!(racy.quantile_ns(f64::NAN), top);
        assert_eq!(
            HistogramSnapshot {
                name: "empty".into(),
                count: 0,
                sum_ns: 0,
                buckets: vec![0; HIST_BUCKETS],
            }
            .quantile_ns(f64::NAN),
            0
        );
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let reg = MetricsRegistry::new();
        reg.add(CounterId::NetRequests, 3);
        reg.set_gauge(GaugeId::Epoch, 5.0);
        reg.record(HistId::NetRequest, Duration::from_micros(3));
        reg.record(HistId::NetRequest, Duration::from_micros(90));
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE skyscraper_net_requests_total counter"));
        assert!(text.contains("skyscraper_net_requests_total 3"));
        assert!(text.contains("skyscraper_epoch 5"));
        assert!(text.contains("skyscraper_net_request_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("skyscraper_net_request_seconds_count 2"));
        // Cumulative buckets: the last finite bound counts both samples.
        let cum2 = text
            .lines()
            .filter(|l| l.starts_with("skyscraper_net_request_seconds_bucket") && l.ends_with(" 2"))
            .count();
        assert!(cum2 >= 2, "cumulative buckets reach the total:\n{text}");
    }
}
