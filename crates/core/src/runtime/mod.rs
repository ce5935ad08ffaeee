//! Sharded multi-threaded ingest runtime with epoch-barrier joint
//! replanning and stream churn.
//!
//! [`IngestRuntime`] is the concurrent serving tier over the Appendix-D
//! multi-stream semantics: N [`IngestSession`]s are sharded across
//! [`vetl_exec::ActorPool`] worker shards, each shard draining its streams'
//! **bounded ingress mailboxes**. A mailbox has two bounds. The *epoch
//! bound* keeps a producer from running more than one planning epoch ahead
//! of the barrier (typed [`SkyError::Overloaded`] backpressure instead of
//! silent lag). The *batch bound*, [`MAILBOX_BATCH`] = 2 048 segments,
//! keeps memory flat in the epoch length: the runtime dispatches as soon as
//! any mailbox holds a batch, so a stream's accepted-but-unprocessed input
//! never exceeds one batch, even at the model's 10 800-segment cadence.
//! 2 048 halves the peak RSS of a 128-stream fleet at unchanged ingest,
//! and smaller batches buy little more memory for many more dispatches
//! (see [`MAILBOX_BATCH`]). The epoch bound is unchanged. Shards
//! run independently *between* planning epochs against **pre-split wallet
//! leases**; at every **epoch barrier** the coordinator settles the spend,
//! re-runs the joint LP (Eqs. 7–9) over all streams' fresh forecasts,
//! refills the wallet, and broadcasts the new plans. Streams can
//! [`open_stream`](IngestRuntime::open_stream) and
//! [`close_stream`](IngestRuntime::close_stream) mid-run: admissions are
//! re-validated against the post-admission fair share and the fleet's one
//! segment length (typed rejections) and a closed stream's core share and
//! lease are redistributed by the next joint plan.
//!
//! ## Determinism
//!
//! The acceptance bar mirrors the parallel offline phase: **for any shard
//! count, per-stream outcomes are bitwise identical** to the single-threaded
//! reference of the same semantics (`testkit::reference`, which processes
//! every push on arrival) over the same segments with the same churn points
//! (property-tested in `tests/runtime.rs` and `tests/dedup.rs`). Three
//! design choices make that possible:
//!
//! 1. **Pre-split wallet leases.** Within an epoch each stream spends only
//!    from its own `budget / V` lease, so no cross-stream state is touched
//!    between barriers and the interleaving of shards cannot influence any
//!    per-stream decision.
//! 2. **Quota-defined epochs.** An epoch is `round(replan_interval /
//!    seg_len)` segments per stream — a pure function of the input, not of
//!    scheduling. A shard that finishes early simply waits; the barrier
//!    fires when every active stream has exhausted its quota (or closed).
//!    Batch dispatches only move processing earlier *within* an epoch: a
//!    stream that used its quota queues nothing more until the barrier is
//!    pending, the dedup cache is frozen between barriers, and leases are
//!    per stream, so dispatch timing cannot reach an outcome bit.
//! 3. **In-band churn.** Close markers travel through the mailbox, pinning
//!    the closure to an exact position in the stream's segment sequence;
//!    per-stream RNGs are seeded from the slot index and are carried across
//!    the shard boundary inside the session state.
//!
//! Batches are dispatched to the shards through
//! [`ActorPool::shard_map_mut`], whose static item→shard assignment keeps
//! every stateful stream on exactly one worker per dispatch; each worker
//! drains its streams' mailboxes in place.

mod mailbox;
mod metrics;
pub(crate) mod wal;

pub use mailbox::MAILBOX_BATCH;
pub use metrics::{RuntimeMetrics, StreamMetrics};

use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use vetl_exec::ActorPool;
use vetl_sim::CostModel;
use vetl_video::Segment;

use crate::dedupe::{DedupCache, DedupPolicy, DedupStats};
use crate::error::SkyError;
use crate::multistream::{
    admission_check, epoch_quota, plan_epoch, validate_segment, JointPlanRecord, MultiOutcome,
    StreamId, StreamOutcome, STREAM_SEED_STRIDE,
};
use crate::obs::{Clock, CounterId, HistId, MonotonicClock, Obs, TraceEvent};
use crate::offline::FittedModel;
use crate::online::session::{IngestOptions, IngestSession, StepReport};
use crate::testkit::chaos::{FailurePlan, CRASH_PAYLOAD};
use crate::workload::Workload;
use mailbox::{Envelope, Mailbox};
use wal::{SlotSnapshot, Wal, WalRecord};

/// Path of the write-ahead journal inside a durability directory (exposed
/// for the chaos helpers and for operational tooling).
pub fn wal_path(dir: &Path) -> PathBuf {
    wal::wal_file(dir)
}

/// Path of the checkpoint snapshot inside a durability directory.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    wal::ckpt_file(dir)
}

/// Bytes of the journal's file header (the chaos helpers never tear into
/// it — a real crash cannot, either, because the header is written once).
pub(crate) const WAL_HEADER_LEN: u64 = wal::HEADER_LEN;

/// Resolver handed to [`IngestRuntime::recover`]: maps a journaled stream
/// `(slot, workload_id)` back to the fitted model and workload the crashed
/// process served it with — typically a lookup into models reloaded from
/// the [`crate::offline::KnowledgeBase`] beside the durability directory.
pub type StreamResolver<'a, 'f> =
    dyn Fn(usize, &str) -> Option<(&'a FittedModel, &'a (dyn Workload + 'a))> + 'f;

/// Durable crash recovery for an [`IngestRuntime`]: where to journal and
/// how often to snapshot.
///
/// With durability installed, every *accepted* input event (admission,
/// segment, closure, forced flush) is appended to `runtime.wal` before it
/// mutates any state, and the full runtime state — per-stream session
/// checkpoints down to the RNG words, mailbox contents, epoch bookkeeping —
/// is snapshotted to `runtime.ckpt` every
/// [`checkpoint_every_epochs`](Self::checkpoint_every_epochs) planning
/// epochs. [`IngestRuntime::recover`] rebuilds the runtime from the latest
/// snapshot plus the journal tail; the recovered runtime continues **bit
/// for bit** where the durable prefix ended.
///
/// The steady-state fault model is **process crashes** (panics, kills):
/// journal records reach the OS per event but are fsynced only at
/// checkpoint points, so a power loss may drop a post-checkpoint journal
/// suffix — recovery treats that like a torn tail and the driver re-feeds
/// it. Note that a snapshot serializes each session's full carried history
/// (category history, trace), so per-snapshot cost grows with stream age;
/// long-lived deployments should raise the cadence accordingly.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory for `runtime.wal` + `runtime.ckpt` (created if missing).
    /// Typically a sibling of the [`crate::offline::KnowledgeBase`] that
    /// holds the streams' fitted models.
    pub dir: PathBuf,
    /// Snapshot cadence in planning epochs; `0` disables snapshots (the
    /// journal then grows for the whole run and recovery replays it all).
    pub checkpoint_every_epochs: usize,
}

impl DurabilityConfig {
    /// Durability in `dir`, snapshotting every planning epoch.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            checkpoint_every_epochs: 1,
        }
    }
}

/// Per-stream summary of what [`IngestRuntime::recover`] restored — the
/// driver's contract for resuming its feed.
#[derive(Debug, Clone)]
pub struct RecoveredStream {
    /// Slot index (admission order; [`StreamId::from_index`]-compatible via
    /// the ids returned by a re-driven `open_stream`).
    pub slot: usize,
    /// The identifier the stream was admitted under.
    pub workload_id: String,
    /// Segments durably accepted for this stream (processed + still queued).
    /// The driver resumes pushing from this offset; anything it pushed past
    /// it was lost in a torn journal tail and must be re-fed.
    pub accepted_segments: usize,
    /// A closure was durably accepted — do not close again.
    pub closed: bool,
}

/// What [`IngestRuntime::recover`] did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Per-slot stream state, in admission order.
    pub streams: Vec<RecoveredStream>,
    /// Journal records replayed through the normal ingest path.
    pub replayed_records: usize,
    /// Segments among the replayed records.
    pub replayed_segments: usize,
    /// Journaled events whose replay re-hit the same deterministic,
    /// non-structural error the original run already returned to its
    /// caller (the original run continued past them, and so did replay).
    pub replay_errors: usize,
    /// Torn-tail bytes discarded from the journal (never acknowledged as
    /// durable, so the driver re-feeds them).
    pub discarded_bytes: u64,
    /// A checkpoint snapshot seeded the recovery (otherwise the whole run
    /// was replayed from the journal alone).
    pub resumed_from_snapshot: bool,
    /// Planning epoch the recovered runtime stands at.
    pub epoch: usize,
}

/// Configuration of an [`IngestRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker shards. `0` means one per available core.
    pub shards: usize,
    /// Cloud dollars granted to the shared wallet per planning epoch.
    pub shared_cloud_budget_usd: f64,
    /// Cost conversions for the joint LP's budget term.
    pub cost_model: CostModel,
    /// Master seed; per-stream RNG seeds are derived from it per slot.
    pub seed: u64,
    /// Joint replanning cadence override (defaults to the smallest planned
    /// interval among admitted models).
    pub replan_interval_secs: Option<f64>,
    /// Shared cluster size override in reference cores (defaults to the
    /// first admitted model's provisioning).
    pub total_cores: Option<f64>,
    /// Durable crash recovery: journal accepted input and snapshot state
    /// into a directory. `None` keeps the runtime purely in-memory.
    /// Durability never changes a decision — a durable run is bitwise
    /// identical to an in-memory run over the same input.
    pub durability: Option<DurabilityConfig>,
    /// Deterministic fault injection
    /// ([`crate::testkit::chaos::FailurePlan`]): seeded worker crashes and
    /// wallet-refill outages for recovery testing. `None` in production.
    /// A plan's *wallet outages* are part of the run's semantic input
    /// timeline (unlike crashes, which replay suppresses): the same plan
    /// must be passed to [`IngestRuntime::recover`], or the replayed
    /// barriers refill a wallet the original run saw empty.
    pub chaos: Option<Arc<FailurePlan>>,
    /// Cross-stream dedup: one content-addressed result cache shared by
    /// every admitted stream (see [`crate::dedupe`]). The policy overrides
    /// whatever the per-stream [`IngestOptions`] carry. Exact-mode dedup
    /// (`DedupPolicy::exact()`) never changes an outcome bit relative to
    /// `None`; tolerant policies trade bounded drift for skipped spend.
    pub dedup: Option<DedupPolicy>,
    /// Observability attachment ([`crate::obs`]): metrics registry plus
    /// flight recorder. `None` means recording off. Recording is
    /// **bitwise-invisible**: no engine decision ever reads observability
    /// state, so a run with an attachment is bitwise identical — outcomes,
    /// plan records, WAL bytes, wire replies — to one without
    /// (property-tested in `tests/obs.rs`).
    pub obs: Option<Arc<Obs>>,
    /// Wall-clock source behind the rate metrics (`wall_secs`,
    /// `segs_per_sec`). `None` uses the monotonic system clock; tests
    /// inject an [`crate::obs::ManualClock`] to assert exact rates. The
    /// clock feeds *only* those two reported fields — never a decision.
    pub clock: Option<Arc<dyn Clock>>,
    /// Flash-crowd admission damping: at most this many streams may be
    /// admitted between segment dispatches. Beyond the cap,
    /// [`IngestRuntime::open_stream`] returns retryable
    /// [`SkyError::AdmissionDeferred`] *before* any state or journal
    /// change — a synchronized fleet reconnect degrades into a paced
    /// admission queue instead of an unbounded re-planning storm. `None`
    /// (the default) disables the cap and is bitwise identical to builds
    /// without the feature.
    pub admission_epoch_cap: Option<usize>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            shared_cloud_budget_usd: 1.0,
            cost_model: CostModel::default(),
            seed: 1234,
            replan_interval_secs: None,
            total_cores: None,
            durability: None,
            chaos: None,
            dedup: None,
            obs: None,
            clock: None,
            admission_epoch_cap: None,
        }
    }
}

/// One admitted stream pinned to a shard: its session, ingress mailbox, and
/// epoch bookkeeping.
struct RtStream<'a> {
    id: String,
    /// `None` only transiently while a processed close marker settles.
    session: Option<IngestSession<'a, dyn Workload + 'a>>,
    mailbox: Mailbox,
    /// Segments processed in the current planning epoch.
    used: usize,
    /// Segment quota per epoch.
    quota: usize,
    /// Segments processed over the stream's lifetime.
    processed: usize,
    /// Most recent step report (feeds the metrics snapshot).
    last_report: Option<StepReport>,
    /// Settled outcome, once a close marker was processed.
    outcome: Option<StreamOutcome>,
}

impl RtStream<'_> {
    /// Drain the mailbox in place on a shard worker, consulting the shared
    /// dedup cache (frozen between barriers, so sharing a reference across
    /// workers is race-free). Returns the number of segments ingested.
    ///
    /// Instrumentation is amortized per batch, never per segment: one
    /// `Instant` pair around claiming the batch (in place, so the pops
    /// themselves fall inside the push span), one around the push loop
    /// (booked as the per-segment mean via
    /// [`record_split`](crate::obs::MetricsRegistry::record_split)), and
    /// one counter add each — so recording stays inside the CI throughput
    /// gate.
    fn process_batch(
        &mut self,
        cache: Option<&DedupCache>,
        obs: Option<&Obs>,
    ) -> Result<usize, SkyError> {
        let t_drain = obs.map(|_| Instant::now());
        let taken = self.mailbox.len();
        if let (Some(o), Some(t)) = (obs, t_drain) {
            o.registry.record(HistId::MailboxDrain, t.elapsed());
            o.registry.add(CounterId::MailboxDrains, taken as u64);
        }
        let t_push = obs.map(|_| Instant::now());
        let mut n = 0;
        let mut failed = None;
        while let Some(env) = self.mailbox.pop() {
            match env {
                Envelope::Segment(seg) => {
                    let session = self.session.as_mut().expect("active stream has a session");
                    match session.push_with_cache(&seg, cache) {
                        Ok(report) => {
                            self.last_report = Some(report);
                            self.used += 1;
                            self.processed += 1;
                            n += 1;
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                Envelope::Close => {
                    self.settle();
                }
            }
        }
        if failed.is_some() {
            // A failed batch drops its unprocessed remainder.
            self.mailbox.clear();
        }
        if let (Some(o), Some(t)) = (obs, t_push) {
            o.registry.record_split(HistId::SessionPush, t.elapsed(), n);
            o.registry.add(CounterId::SessionPushes, n as u64);
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(n),
        }
    }

    /// The [`SkyError::Overloaded`] report: segments accepted into the epoch
    /// the mailbox is filling (processed by batch dispatches or still
    /// queued) and that epoch's quota. While the lazy barrier is pending, a
    /// stream that used its quota fills the next epoch, whose quota is the
    /// mailbox capacity and none of whose segments has been processed.
    fn epoch_fill(&self, barrier_pending: bool) -> (usize, usize) {
        let queued = self.mailbox.segments_queued();
        if barrier_pending && self.used >= self.quota {
            (queued, self.mailbox.capacity())
        } else {
            (self.used + queued, self.quota)
        }
    }

    /// Release everything the reorder gate still holds into the mailbox
    /// (nothing without a gate); returns how many segments that was.
    fn drain_gate(&mut self) -> usize {
        let released = self.session.as_mut().map(IngestSession::gate_drain);
        let released = released.unwrap_or_default();
        self.mailbox.extend(&released);
        released.len()
    }

    /// Settle the session into the stream's outcome (idempotent).
    fn settle(&mut self) {
        if let Some(session) = self.session.take() {
            self.outcome = Some(StreamOutcome {
                workload_id: self.id.clone(),
                outcome: session.finish(),
            });
        }
    }
}

/// A stream slot; admission order is slot order and [`StreamId`]s stay
/// stable under churn.
enum RtSlot<'a> {
    Active(Box<RtStream<'a>>),
    Closed(StreamOutcome),
}

/// The sharded multi-threaded ingest runtime. See the [module docs](self).
///
/// Typical driving loop:
///
/// ```ignore
/// let mut rt = IngestRuntime::new(RuntimeConfig::default());
/// let a = rt.open_stream("cam-a", &model_a, &workload_a, IngestOptions::default())?;
/// let b = rt.open_stream("cam-b", &model_b, &workload_b, IngestOptions::default())?;
/// for (seg_a, seg_b) in stream_a.iter().zip(&stream_b) {
///     rt.push(a, seg_a)?; // Err(Overloaded) = typed backpressure
///     rt.push(b, seg_b)?;
/// }
/// rt.close_stream(a)?;    // mid-run churn: lease + cores redistributed
/// let outcome = rt.finish()?;
/// ```
pub struct IngestRuntime<'a> {
    pool: ActorPool,
    shards: usize,
    slots: Vec<RtSlot<'a>>,
    shared_budget_usd: f64,
    cost_model: CostModel,
    seed: u64,
    replan_interval: Option<f64>,
    total_cores: Option<f64>,
    joint_plans: usize,
    last_joint_plan: Option<JointPlanRecord>,
    /// A full epoch completed; the barrier (settle + joint replan) fires
    /// lazily when the next batch dispatches — exactly when processing on
    /// arrival would replan, on the first push of the next epoch.
    barrier_pending: bool,
    epoch: usize,
    processed_total: usize,
    /// Wall-clock source behind the rate metrics; anchored at creation.
    /// Like the observability attachment below, the clock feeds only
    /// *reported* values, never a decision.
    clock: Arc<dyn Clock>,
    started_secs: f64,
    /// Observability attachment (metrics registry + flight recorder).
    /// `None` = recording off; the hot path then does no obs work at all.
    /// Never read by any decision — see [`RuntimeConfig::obs`].
    obs: Option<Arc<Obs>>,
    /// Durability wiring (see [`DurabilityConfig`]). The journal handle
    /// opens lazily on the first accepted event.
    dur: Option<DurabilityConfig>,
    wal: Option<Wal>,
    last_ckpt_epoch: usize,
    /// Recovery replay in progress: suppress journaling, snapshots, and
    /// injected crashes while the journal is re-driven through the normal
    /// ingest path.
    replaying: bool,
    /// A journal append failed *after* its event had already mutated state
    /// (the one ordering the record-then-apply discipline cannot cover:
    /// admission/barrier records are only knowable post-commit). Memory has
    /// diverged from the journal; the runtime fails every further operation
    /// so the divergence cannot compound, and the caller rebuilds from disk
    /// via [`IngestRuntime::recover`] — which restores exactly the
    /// journaled (acknowledged) prefix.
    poisoned: Option<String>,
    chaos: Option<Arc<FailurePlan>>,
    /// Cross-stream dedup cache shared by every session. Read-only while
    /// batches dispatch; refreshed single-threaded at each epoch barrier in
    /// stable slot order (see [`crate::dedupe`]).
    dedup: Option<DedupCache>,
    /// Flash-crowd damping ([`RuntimeConfig::admission_epoch_cap`]).
    admission_epoch_cap: Option<usize>,
    /// Streams admitted since the last segment dispatch; checked against
    /// the cap before an admission touches state or journal, reset by
    /// [`dispatch`](Self::dispatch). Part of the durable snapshot, and the
    /// replayed counter sequence matches the original run's exactly (only
    /// *successful* admissions are journaled), so journaled `Open`s can
    /// never spuriously defer on recovery.
    opens_since_dispatch: usize,
}

impl<'a> IngestRuntime<'a> {
    /// Create a runtime with the given shard count and wallet budget.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let shards = if cfg.shards > 0 {
            cfg.shards
        } else {
            // `0` defers to deployment-level detection: the `VETL_SHARDS`
            // override if set, otherwise the detected core count (see
            // [`crate::serve::detect_shards`]). Shard count never changes
            // an outcome bit, so the override is purely operational.
            crate::serve::detect_shards()
        };
        let clock: Arc<dyn Clock> = cfg.clock.unwrap_or_else(|| Arc::new(MonotonicClock::new()));
        let started_secs = clock.now_secs();
        Self {
            pool: ActorPool::new(shards),
            shards,
            slots: Vec::new(),
            shared_budget_usd: cfg.shared_cloud_budget_usd,
            cost_model: cfg.cost_model,
            seed: cfg.seed,
            replan_interval: cfg.replan_interval_secs,
            total_cores: cfg.total_cores,
            joint_plans: 0,
            last_joint_plan: None,
            barrier_pending: false,
            epoch: 0,
            processed_total: 0,
            clock,
            started_secs,
            obs: cfg.obs,
            dur: cfg.durability,
            wal: None,
            last_ckpt_epoch: 0,
            replaying: false,
            poisoned: None,
            chaos: cfg.chaos,
            dedup: cfg.dedup.map(DedupCache::new),
            admission_epoch_cap: cfg.admission_epoch_cap,
            opens_since_dispatch: 0,
        }
    }

    /// Worker shards serving the streams.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Streams currently active (admitted and not closed or closing).
    pub fn n_streams(&self) -> usize {
        self.active().count()
    }

    /// Times the joint LP has run.
    pub fn joint_plans(&self) -> usize {
        self.joint_plans
    }

    /// Planning epochs completed.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Inputs and splits of the most recent joint plan.
    pub fn last_joint_plan(&self) -> Option<&JointPlanRecord> {
        self.last_joint_plan.as_ref()
    }

    /// The shared cross-stream dedup cache, when enabled.
    pub fn dedup_cache(&self) -> Option<&DedupCache> {
        self.dedup.as_ref()
    }

    /// The observability attachment, when recording is on.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Count and trace an admission that was turned away (`counter` tells
    /// a deferral from a rejection).
    fn obs_admission_rejected(
        &self,
        counter: CounterId,
        workload_id: &str,
        reason: impl std::fmt::Display,
    ) {
        if let Some(o) = &self.obs {
            o.registry.inc(counter);
            o.flight.record(TraceEvent::AdmissionRejected {
                workload_id: workload_id.to_string(),
                reason: reason.to_string(),
            });
        }
    }

    /// Unspent cloud credits across the active streams' current leases.
    fn wallet_left(&self) -> f64 {
        if self.active().next().is_none() {
            return self.shared_budget_usd;
        }
        self.active()
            .filter_map(|s| s.session.as_ref())
            .map(|s| s.cloud_credits_left())
            .sum()
    }

    fn active(&self) -> impl Iterator<Item = &RtStream<'a>> {
        self.slots.iter().filter_map(|s| match s {
            RtSlot::Active(a) => Some(a.as_ref()),
            RtSlot::Closed(_) => None,
        })
    }

    /// Admit a stream mid-run: check the candidate against the streams that
    /// will still be active, deliver everything already queued (so the
    /// admission lands at a deterministic point in every stream's segment
    /// sequence), then cross an epoch barrier that includes the newcomer.
    ///
    /// Rejects with [`SkyError::InvalidInput`] when the candidate's segment
    /// length differs from the active streams', and with
    /// [`SkyError::UnderProvisioned`] when any stream's cheapest
    /// configuration could no longer run in real time on the post-admission
    /// fair share. A rejected admission leaves neither state nor journal
    /// behind.
    pub fn open_stream(
        &mut self,
        workload_id: impl Into<String>,
        model: &'a FittedModel,
        workload: &'a (dyn Workload + 'a),
        options: IngestOptions,
    ) -> Result<StreamId, SkyError> {
        self.check_poisoned()?;
        let workload_id = workload_id.into();
        // Flash-crowd damping fires before *anything* — no journal record,
        // no flush, no state change — so a deferred admission is traceless
        // and the caller simply retries after pushing segments (which
        // dispatches and resets the counter).
        if let Some(cap) = self.admission_epoch_cap {
            if self.opens_since_dispatch >= cap {
                self.obs_admission_rejected(
                    CounterId::AdmissionsDeferred,
                    &workload_id,
                    format_args!(
                        "deferred: {} admissions since the last dispatch (cap {cap})",
                        self.opens_since_dispatch
                    ),
                );
                return Err(SkyError::AdmissionDeferred {
                    pending: self.opens_since_dispatch,
                    cap,
                });
            }
        }
        // Streams with a close queued settle in the flush below and do not
        // share the post-admission cluster, so the check (which the flush
        // cannot change) runs first and a rejection stays traceless.
        let total = self
            .total_cores
            .unwrap_or_else(|| model.hardware.cluster.throughput());
        let staying: Vec<&FittedModel> = self
            .active()
            .filter(|s| !s.mailbox.close_queued())
            .filter_map(|s| s.session.as_ref())
            .map(|s| s.model())
            .collect();
        if let Err(e) = admission_check(&staying, model, total) {
            self.obs_admission_rejected(CounterId::AdmissionsRejected, &workload_id, &e);
            return Err(e);
        }
        // The pre-admission flush delivers partial epochs and moves the
        // epoch structure even when the barrier below then fails — it must
        // be journaled unconditionally, *before* it runs.
        let caller_options = options.clone();
        self.wal_append(&WalRecord::Flush)?;
        self.flush()?;
        let prev_total = self.total_cores;
        self.total_cores = Some(total);

        let slot = self.slots.len();
        let mut options = options;
        options.seed = self
            .seed
            .wrapping_add((slot as u64).wrapping_mul(STREAM_SEED_STRIDE));
        // The runtime's dedup policy wins: every session must consult the
        // shared cache under the same policy or the scope check trips.
        options.dedup = self.dedup.as_ref().map(|c| *c.policy());
        let mut session = IngestSession::external(model, workload, options);
        if let Some(o) = &self.obs {
            session.attach_obs(o.clone());
        }
        let candidate = Box::new(RtStream {
            id: workload_id.clone(),
            session: Some(session),
            mailbox: Mailbox::new(1),
            used: 0,
            quota: 1,
            processed: 0,
            last_report: None,
            outcome: None,
        });
        if let Err(e) = self.barrier(Some(candidate)) {
            self.total_cores = prev_total;
            self.obs_admission_rejected(CounterId::AdmissionsRejected, &workload_id, &e);
            return Err(e);
        }
        self.opens_since_dispatch += 1;
        if let Some(o) = &self.obs {
            o.registry.inc(CounterId::AdmissionsAccepted);
            o.flight.record(TraceEvent::AdmissionAccepted {
                slot,
                workload_id: workload_id.clone(),
            });
        }
        // The admission is committed: these records are post-commit by
        // necessity (the slot and epoch only exist now), so a failed append
        // poisons the runtime instead of leaving a silent divergence.
        self.wal_append_committed(&WalRecord::Open {
            slot,
            workload_id,
            options: caller_options,
        })?;
        self.wal_append_barrier()?;
        // No snapshot here: admissions advance the epoch counter, but a
        // snapshot per admission would make opening N streams O(N²) in
        // serialized session state. The Open record alone makes the
        // admission durable; the next dispatch-driven epoch snapshots.
        Ok(StreamId::from_index(slot))
    }

    /// Enqueue one segment into a stream's ingress mailbox — a
    /// [`push_batch`](Self::push_batch) of length 1 with the error
    /// unwrapped. Dispatches across the shards as soon as the mailbox holds
    /// [`MAILBOX_BATCH`] segments, or every active stream has the rest of
    /// its epoch (or a close marker) queued.
    ///
    /// Returns [`SkyError::Overloaded`] when the stream has already been
    /// given its full epoch quota and lagging streams hold the barrier back
    /// — feed or close them, then retry.
    pub fn push(&mut self, stream: StreamId, seg: &Segment) -> Result<(), SkyError> {
        self.ingest(stream, std::slice::from_ref(seg))
            .map_err(|(_, e)| e)
    }

    /// Enqueue a run of segments into a stream's ingress mailbox —
    /// **semantically identical** to calling [`push`](Self::push) once per
    /// segment, in order (property-tested in `tests/runtime.rs`); the slice
    /// length only decides how many segments share one journal frame and
    /// one dispatch check (see [`mailbox_room`](Self::mailbox_room)).
    ///
    /// On any failure the error is wrapped in [`SkyError::BatchFailed`]
    /// carrying how many leading segments were accepted (journaled +
    /// enqueued, never to be re-fed); the wrapped source is the error the
    /// per-segment loop's next `push` would have returned — e.g.
    /// [`SkyError::Overloaded`] when lagging sibling streams block the
    /// dispatch mid-batch.
    pub fn push_batch(&mut self, stream: StreamId, segs: &[Segment]) -> Result<(), SkyError> {
        self.ingest(stream, segs)
            .map_err(|(accepted, e)| SkyError::BatchFailed {
                accepted,
                source: Box::new(e),
            })
    }

    /// The one ingest path: `push`, `push_batch` and journal replay all
    /// land here. The slice is consumed in [`step`](Self::step)s; the error
    /// carries how many segments were accepted before it.
    fn ingest(&mut self, stream: StreamId, segs: &[Segment]) -> Result<(), (usize, SkyError)> {
        let mut accepted = 0;
        while accepted < segs.len() {
            self.step(stream, &segs[accepted..], &mut accepted)
                .map_err(|e| (accepted, e))?;
        }
        Ok(())
    }

    /// One ingest step: validate without mutating, journal, then apply —
    /// an event is only applied once it is durable, and a rejected step
    /// (typed backpressure, invalid or late input) leaves neither state
    /// nor journal behind.
    ///
    /// The step takes the longest prefix of `rest` the stream accepts
    /// without an intermediate decision: exactly one arrival for a
    /// reorder-gated stream (each may hold or release a variable run);
    /// otherwise everything up to the mailbox's remaining epoch room and
    /// the first invalid segment. Below the room bound this stream keeps
    /// the epoch from dispatching, so the per-segment loop's intermediate
    /// epoch checks are no-ops and one at the step boundary is that loop;
    /// the batch dispatches `enqueue` makes inside the step only move
    /// processing earlier, which no outcome bit can see. An invalid segment
    /// ends the step before it and fails the next one, with the same error
    /// and accepted count the loop reports.
    fn step(
        &mut self,
        stream: StreamId,
        rest: &[Segment],
        accepted: &mut usize,
    ) -> Result<(), SkyError> {
        self.check_poisoned()?;
        // The finiteness check also keeps the journal replayable: a segment that could only fail
        // *during* dispatch must be rejected before it is journaled.
        validate_segment(&rest[0])?;
        let a = self.writable(stream)?;
        let (slot, room) = (stream.index(), a.mailbox.room());
        if room == 0 {
            let (queued, capacity) = a.epoch_fill(self.barrier_pending);
            if let Some(o) = &self.obs {
                o.registry.inc(CounterId::BackpressureRejections);
                o.flight.record(TraceEvent::Backpressure {
                    slot,
                    queued,
                    capacity,
                });
            }
            return Err(SkyError::Overloaded {
                stream: slot,
                queued,
                capacity,
            });
        }
        let session = a.session.as_ref();
        let session = session.expect("a stream without a queued close has a session");
        let gated = session.gate_check(&rest[0]).inspect_err(|e| {
            if let (Some(o), SkyError::LateSegment { .. }) = (&self.obs, e) {
                o.registry.inc(CounterId::LateSegmentRejections);
            }
        })?;
        let limit = if gated { 1 } else { rest.len().min(room) };
        let valid = rest[1..limit].iter();
        let valid = valid.take_while(|seg| validate_segment(seg).is_ok());
        let chunk = &rest[..1 + valid.count()];
        self.wal_append(&WalRecord::Segs {
            slot,
            segs: Cow::Borrowed(chunk),
        })?;
        // Journaled: from here on the chunk must never be re-fed, even when
        // the dispatch or snapshot below fails.
        *accepted += chunk.len();
        // The gate turns the one accepted arrival into the run it releases:
        // nothing on a hold, up to `window + 1` segments on a gap-fill. The
        // release lives only on this stack, so no snapshot may happen
        // before `enqueue` has queued all of it.
        let released = gated.then(|| {
            let session = self.stream_mut(slot).session.as_mut();
            let session = session.expect("a stream without a queued close has a session");
            session.gate_admit(chunk[0])
        });
        if let (Some(o), Some([])) = (&self.obs, released.as_deref()) {
            o.registry.inc(CounterId::ReorderHolds);
        }
        self.enqueue(slot, released.as_deref().unwrap_or(chunk))?;
        self.applied()
    }

    /// Queue journaled segments into the stream's mailbox: fill to the
    /// epoch room or the batch bound, whichever comes first. A full batch
    /// dispatches at once; at the epoch room the dispatch waits for the
    /// epoch rule — exactly where the in-order per-segment run dispatches,
    /// so a within-window degraded run shares its epoch boundaries (and
    /// hence its outcome, bit for bit) with it. Then continue into the
    /// freed mailbox. An ungated step was sized to the room; only a gate
    /// release can be longer. When lagging siblings block the dispatch,
    /// the remainder overshoots the quota (and the batch), bounded by the
    /// gate window: released segments are journaled input and must never
    /// be dropped.
    fn enqueue(&mut self, slot: usize, mut segs: &[Segment]) -> Result<(), SkyError> {
        if let Some(o) = &self.obs {
            // Counter-only on the enqueue path: one relaxed atomic add, no
            // `Instant` — per-push timing would dominate the push itself.
            o.registry
                .add(CounterId::MailboxEnqueues, segs.len() as u64);
        }
        loop {
            let mailbox = &mut self.stream_mut(slot).mailbox;
            let fill = match mailbox.room() {
                0 => segs.len(),
                room => room.min(mailbox.batch_room()).min(segs.len()),
            };
            mailbox.extend(&segs[..fill]);
            segs = &segs[fill..];
            let batch = mailbox.batch_room() == 0;
            if segs.is_empty() && !batch {
                return Ok(());
            }
            self.dispatch_recorded(batch)?;
            if segs.is_empty() {
                return Ok(());
            }
        }
    }

    /// Dispatch a full batch, or the epoch if it is ready, journaling the
    /// barrier it crossed.
    fn dispatch_recorded(&mut self, batch: bool) -> Result<(), SkyError> {
        let before = self.epoch;
        if batch {
            self.dispatch()?;
        } else {
            self.try_dispatch()?;
        }
        if self.epoch != before {
            self.wal_append_barrier()?;
        }
        Ok(())
    }

    /// Tail of every journaled-and-applied event (segments, closures):
    /// dispatch, then snapshot if the cadence came due. A snapshot failure
    /// must not read as a rejected event (a retry would feed the same
    /// input twice), so it poisons fail-stop instead.
    fn applied(&mut self) -> Result<(), SkyError> {
        self.dispatch_recorded(false)?;
        let r = self.maybe_snapshot();
        self.poison_on_err(r)
    }

    /// The one slot-state check: the stream exists, is not closed, and has
    /// no close marker queued.
    fn writable(&self, stream: StreamId) -> Result<&RtStream<'a>, SkyError> {
        let id = stream.index();
        match self.slots.get(id) {
            None => Err(SkyError::UnknownStream { id }),
            Some(RtSlot::Active(a)) if !a.mailbox.close_queued() => Ok(a),
            Some(_) => Err(SkyError::StreamClosed { id }),
        }
    }

    /// The stream in `slot`, which [`writable`](Self::writable) vouched for.
    fn stream_mut(&mut self, slot: usize) -> &mut RtStream<'a> {
        match &mut self.slots[slot] {
            RtSlot::Active(a) => a,
            RtSlot::Closed(_) => unreachable!("checked writable above"),
        }
    }

    /// Segments a batched push can currently enqueue for `stream` before the
    /// epoch bound — the stream's remaining epoch-quota room (a run longer
    /// than [`MAILBOX_BATCH`] is dispatched in batches as it is queued).
    /// Batch drivers size their runs with this hint to stay
    /// backpressure-free; pushing more is still correct, just chunked.
    pub fn mailbox_room(&self, stream: StreamId) -> Result<usize, SkyError> {
        self.writable(stream).map(|a| a.mailbox.room())
    }

    /// Close a stream mid-run by queuing an in-band close marker: the
    /// stream settles right after the segments pushed before the marker,
    /// and the next joint plan redistributes its core share and wallet
    /// lease across the remaining streams.
    pub fn close_stream(&mut self, stream: StreamId) -> Result<(), SkyError> {
        self.check_poisoned()?;
        self.writable(stream)?;
        let slot = stream.index();
        self.wal_append(&WalRecord::Close { slot })?;
        // Release the reorder gate ahead of the close marker: held segments
        // are journaled (accepted) input, so the close pins the stream's
        // settlement *after* them; remaining gaps become
        // [`ReorderStats::lost`]. Runs identically live and on replay (the
        // drain happens after the Close record on both paths).
        let a = self.stream_mut(slot);
        let released = a.drain_gate();
        a.mailbox.push_close();
        if let Some(o) = &self.obs {
            o.registry
                .add(CounterId::MailboxEnqueues, released as u64 + 1);
        }
        self.applied()
    }

    /// Point-in-time snapshot: per-stream lag, buffer fill, spend, and
    /// aggregate throughput. With an observability attachment, the snapshot
    /// is also projected onto the registry's gauges
    /// ([`RuntimeMetrics::sync_registry`] — the single mapping that keeps
    /// the two exposition surfaces from drifting).
    pub fn metrics(&self) -> RuntimeMetrics {
        let wall_secs = (self.clock.now_secs() - self.started_secs).max(0.0);
        let streams = self
            .slots
            .iter()
            .enumerate()
            .map(|(slot, s)| match s {
                RtSlot::Active(a) => {
                    let (buffer_bytes, backlog_work, cloud, overflows, dedup) = match &a.session {
                        Some(sess) => (
                            sess.buffer_bytes(),
                            sess.backlog_work(),
                            sess.cloud_spent_usd(),
                            sess.overflows(),
                            sess.dedup_stats(),
                        ),
                        None => {
                            let o = a.outcome.as_ref().expect("settled without session");
                            (
                                0.0,
                                0.0,
                                o.outcome.cloud_usd,
                                o.outcome.overflows,
                                o.outcome.dedup,
                            )
                        }
                    };
                    StreamMetrics {
                        slot,
                        workload_id: a.id.clone(),
                        active: a.session.is_some(),
                        segments_processed: a.processed,
                        // Lateness-aware lag: segments held by the reorder
                        // gate are accepted-but-unprocessed exactly like
                        // mailbox-queued ones, so they count as lag.
                        lag_segments: a.mailbox.segments_queued()
                            + a.session.as_ref().map_or(0, IngestSession::reorder_held),
                        buffer_bytes,
                        backlog_work,
                        cloud_spent_usd: cloud,
                        overflows,
                        dedup,
                    }
                }
                RtSlot::Closed(o) => StreamMetrics {
                    slot,
                    workload_id: o.workload_id.clone(),
                    active: false,
                    segments_processed: o.outcome.segments,
                    lag_segments: 0,
                    buffer_bytes: 0.0,
                    backlog_work: 0.0,
                    cloud_spent_usd: o.outcome.cloud_usd,
                    overflows: o.outcome.overflows,
                    dedup: o.outcome.dedup,
                },
            })
            .collect::<Vec<_>>();
        let mut dedup = DedupStats::default();
        for s in &streams {
            dedup.absorb(&s.dedup);
        }
        let m = RuntimeMetrics {
            shards: self.shards,
            epoch: self.epoch,
            joint_plans: self.joint_plans,
            wallet_left_usd: self.wallet_left(),
            segments_processed: self.processed_total,
            wall_secs,
            segs_per_sec: self.processed_total as f64 / wall_secs.max(1e-9),
            dedup,
            dedup_cache_entries: self.dedup.as_ref().map_or(0, DedupCache::len),
            streams,
        };
        if let Some(o) = &self.obs {
            m.sync_registry(&o.registry);
        }
        m
    }

    /// Deliver all remaining queued input and settle every stream — active
    /// and closed alike — into the joint outcome, in admission order.
    pub fn finish(mut self) -> Result<MultiOutcome, SkyError> {
        self.check_poisoned()?;
        // Release every reorder gate first: held segments are accepted
        // (journaled) input and must be processed, never dropped; remaining
        // gaps are declared lost. Deterministic — a re-run of finish after
        // a crash drains the same recovered gate state the same way.
        for slot in &mut self.slots {
            if let RtSlot::Active(a) = slot {
                a.drain_gate();
            }
        }
        self.flush()?;
        let mut out = MultiOutcome::default();
        for slot in self.slots.drain(..) {
            let settled = match slot {
                RtSlot::Active(mut a) => {
                    a.settle();
                    a.outcome.take().expect("settle produced an outcome")
                }
                RtSlot::Closed(s) => s,
            };
            out.cloud_usd += settled.outcome.cloud_usd;
            out.joint_quality += settled.outcome.mean_quality;
            out.streams.push(settled);
        }
        Ok(out)
    }

    /// Dispatch when every active stream is ready for the epoch rule — its
    /// mailbox holds the rest of its quota, or a close marker bounds its
    /// epoch. (The batch rule needs no scan: only `enqueue` grows a
    /// mailbox, and it dispatches a full batch on the spot.)
    fn try_dispatch(&mut self) -> Result<(), SkyError> {
        let mut any_input = false;
        for a in self.active() {
            if !a.mailbox.close_queued() && a.mailbox.segments_queued() < a.mailbox.capacity() {
                return Ok(());
            }
            any_input = any_input || !a.mailbox.is_empty();
        }
        if any_input {
            self.dispatch()?;
        }
        Ok(())
    }

    /// Deliver everything queued: complete epochs first, then the partial
    /// remainder (used before admissions and at finish, so those land at a
    /// deterministic per-stream position).
    fn flush(&mut self) -> Result<(), SkyError> {
        self.try_dispatch()?;
        if self.active().any(|a| !a.mailbox.is_empty()) {
            self.dispatch()?;
        }
        Ok(())
    }

    /// Process every non-empty mailbox across the worker shards, preceded
    /// by the lazily pending epoch barrier. Streams whose mailbox *begins*
    /// with a close marker settle before the barrier (they closed at the
    /// epoch boundary and must not join the next joint plan).
    fn dispatch(&mut self) -> Result<(), SkyError> {
        // Arm the flight recorder's panic dump for the whole dispatch: an
        // injected chaos crash (or a real one) in a worker flushes the
        // trace timeline before the panic propagates. The Arc clone keeps
        // the guard's borrow off `self`.
        let obs = self.obs.clone();
        let _panic_dump = obs.as_ref().map(|o| o.flight.panic_dump_guard());
        if self.barrier_pending {
            for slot in &mut self.slots {
                if let RtSlot::Active(a) = slot {
                    if a.mailbox.close_is_first() {
                        a.mailbox.clear();
                        a.settle();
                    }
                }
            }
            self.seal_settled();
            if self.active().next().is_some() {
                self.barrier(None)?;
            } else {
                self.barrier_pending = false;
            }
        }

        // Fan the epoch batches out across the shards. The item→shard
        // assignment is static, so each stateful stream is touched by
        // exactly one worker and the results cannot depend on scheduling.
        let mut items: Vec<(usize, &mut RtStream<'a>)> = self
            .slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| match s {
                RtSlot::Active(a) if !a.mailbox.is_empty() => Some((i, a.as_mut())),
                _ => None,
            })
            .collect();
        let n_items = items.len();
        let shards_eff = self.shards.min(n_items.max(1));
        let chaos = if self.replaying {
            // Crashes already happened in the journaled timeline; replaying
            // them again would make recovery crash forever.
            None
        } else {
            self.chaos.clone()
        };
        let epoch = self.epoch;
        // Shared read-only cache reference for the workers: the cache only
        // mutates at barriers, which run single-threaded before this fan-out.
        let cache = self.dedup.as_ref();
        let worker_obs = obs.as_deref();
        let t_dispatch = worker_obs.map(|_| Instant::now());
        let results = self.pool.shard_map_mut(&mut items, |i, (slot, rt)| {
            if let Some(plan) = &chaos {
                // Invert shard_map_mut's balanced contiguous partition
                // (shard s covers [s·n/k, (s+1)·n/k)): item i's owner is
                // the smallest s with (s+1)·n/k > i, i.e. ⌈k(i+1)/n⌉ − 1 —
                // so the crash lands in the worker that owns this item.
                let shard = (shards_eff * (i + 1) - 1) / n_items.max(1);
                if plan.crash_now(epoch, shard) {
                    if let Some(o) = worker_obs {
                        o.registry.inc(CounterId::ChaosCrashes);
                        o.flight.record(TraceEvent::ChaosCrash {
                            epoch: epoch as u64,
                            shard,
                        });
                    }
                    panic!("{CRASH_PAYLOAD} (epoch {epoch}, shard {shard})");
                }
            }
            (*slot, rt.process_batch(cache, worker_obs))
        });
        drop(items);
        if let (Some(o), Some(t)) = (worker_obs, t_dispatch) {
            o.registry.record(HistId::BatchDispatch, t.elapsed());
            o.registry.inc(CounterId::BatchDispatches);
        }
        for (slot, r) in results {
            match r {
                Ok(n) => self.processed_total += n,
                Err(e) => {
                    return Err(SkyError::PushFailed {
                        stream: slot,
                        source: Box::new(e),
                    })
                }
            }
        }
        self.seal_settled();

        // A full epoch completed when every remaining active stream
        // exhausted its quota; the barrier then fires lazily with the next
        // dispatch. Partial deliveries (flush) leave the epoch open.
        if self.active().next().is_some() && self.active().all(|a| a.used >= a.quota) {
            self.barrier_pending = true;
        }
        self.refresh_mailbox_caps();
        // Segments made progress: the flash-crowd admission window reopens.
        self.opens_since_dispatch = 0;
        Ok(())
    }

    /// Convert streams whose close marker was processed into closed slots.
    fn seal_settled(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let RtSlot::Active(a) = slot {
                if let Some(outcome) = a.outcome.take() {
                    *slot = RtSlot::Closed(outcome);
                    if let Some(o) = &self.obs {
                        o.flight.record(TraceEvent::StreamClosed { slot: i });
                    }
                }
            }
        }
    }

    /// Re-bound every active mailbox after a dispatch. A stream left
    /// mid-epoch (a batch dispatch, a flush, a journaled `Flush` replayed)
    /// may only queue the **remainder** of its current quota. A stream
    /// that used its quota may queue the *next* epoch's full quota once the
    /// lazy barrier is pending (it resets the count before processing any
    /// of it), and **nothing** while lagging siblings hold the barrier back
    /// — otherwise the next batch dispatch would process past the epoch
    /// bound and fire the joint replan later than processing on arrival
    /// would.
    fn refresh_mailbox_caps(&mut self) {
        let models: Vec<&FittedModel> = self
            .active()
            .filter_map(|s| s.session.as_ref())
            .map(|s| s.model())
            .collect();
        if models.is_empty() {
            return;
        }
        let interval = self.replan_interval.unwrap_or_else(|| {
            models
                .iter()
                .map(|m| m.hyper.planned_interval_secs)
                .fold(f64::INFINITY, f64::min)
        });
        let barrier_pending = self.barrier_pending;
        for slot in &mut self.slots {
            if let RtSlot::Active(a) = slot {
                if let Some(sess) = &a.session {
                    let cap = if a.used < a.quota {
                        a.quota - a.used
                    } else if barrier_pending {
                        epoch_quota(interval, sess.model().seg_len)
                    } else {
                        0
                    };
                    a.mailbox.set_capacity(cap);
                }
            }
        }
    }

    /// Cross the epoch barrier: settle the leases, re-run the joint LP over
    /// all active streams (plus the admission candidate), install the
    /// plans, and re-split shares and leases, computed through the shared
    /// [`plan_epoch`].
    fn barrier(&mut self, candidate: Option<Box<RtStream<'a>>>) -> Result<(), SkyError> {
        let obs = self.obs.clone();
        if let Some(o) = obs.as_deref() {
            o.flight.record(TraceEvent::EpochClose {
                epoch: self.epoch as u64,
            });
        }
        let t_settle = obs.as_deref().map(|_| Instant::now());
        let candidate_slot = self.slots.len();
        let mut stream_slots: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, RtSlot::Active(_)))
            .map(|(i, _)| i)
            .collect();
        let mut models: Vec<&'a FittedModel> = self
            .active()
            .filter_map(|s| s.session.as_ref())
            .map(|s| s.model())
            .collect();
        let mut rs: Vec<Vec<f64>> = self
            .active()
            .filter_map(|s| s.session.as_ref())
            .map(|s| s.forecast_distribution())
            .collect::<Result<_, _>>()?;
        if let Some(c) = &candidate {
            stream_slots.push(candidate_slot);
            let session = c.session.as_ref().expect("candidate has a session");
            models.push(session.model());
            rs.push(session.forecast_distribution()?);
        }
        let total = self.total_cores.expect("set at first admission");
        // Injected wallet-refill outage: the barrier entering this epoch
        // grants zero cloud dollars. A semantic fault, not a crash — it is
        // part of the (deterministic) input timeline and applies equally to
        // reference runs and recovery replays.
        let budget = match &self.chaos {
            Some(plan) if plan.outage_at(self.epoch + 1) => {
                if let Some(o) = obs.as_deref() {
                    o.registry.inc(CounterId::ChaosOutages);
                    o.flight.record(TraceEvent::ChaosOutage {
                        epoch: (self.epoch + 1) as u64,
                    });
                }
                0.0
            }
            _ => self.shared_budget_usd,
        };
        if let (Some(o), Some(t)) = (obs.as_deref(), t_settle) {
            o.registry.record(HistId::BarrierSettle, t.elapsed());
        }
        let t_lp = obs.as_deref().map(|_| Instant::now());
        let (plans, math) = plan_epoch(
            &models,
            &rs,
            total,
            budget,
            &self.cost_model,
            self.replan_interval,
        )?;
        if let (Some(o), Some(t)) = (obs.as_deref(), t_lp) {
            o.registry.inc(CounterId::LpSolvesCold);
            o.registry.record(HistId::BarrierLpSolveCold, t.elapsed());
        }

        let t_resplit = obs.as_deref().map(|_| Instant::now());
        if let Some(c) = candidate {
            self.slots.push(RtSlot::Active(c));
        }
        let mut plans = plans.into_iter();
        for slot in &mut self.slots {
            if let RtSlot::Active(a) = slot {
                let session = a.session.as_mut().expect("active stream has a session");
                let seg_len = session.model().seg_len;
                session.install_plan(plans.next().expect("one plan per active stream"));
                session.set_capacity_per_seg(math.fair * seg_len);
                session.set_cloud_credits(math.lease);
                a.used = 0;
                a.quota = epoch_quota(math.interval, seg_len);
                a.mailbox.set_capacity(a.quota);
            }
        }
        if let (Some(o), Some(t)) = (obs.as_deref(), t_resplit) {
            o.registry.record(HistId::BarrierWalletResplit, t.elapsed());
        }
        let t_broadcast = obs.as_deref().map(|_| Instant::now());
        // Merge the settled epoch's pending dedup entries in stable slot
        // order, single-threaded, so the cache contents after a barrier are
        // independent of shard count and thread timing.
        if let Some(cache) = self.dedup.as_mut() {
            cache.begin_epoch();
            for slot in &mut self.slots {
                if let RtSlot::Active(a) = slot {
                    if let Some(session) = a.session.as_mut() {
                        cache.publish(session.take_dedup_pending());
                    }
                }
            }
            cache.enforce_capacity();
        }
        self.joint_plans += 1;
        self.epoch += 1;
        self.barrier_pending = false;
        if let (Some(o), Some(t)) = (obs.as_deref(), t_broadcast) {
            o.registry.record(HistId::BarrierBroadcast, t.elapsed());
            o.registry.inc(CounterId::EpochBarriers);
            o.flight.record(TraceEvent::PlanChange {
                epoch: self.epoch as u64,
                streams: stream_slots.len(),
                fair_cores: math.fair,
                lease_usd: math.lease,
                budget_per_seg_total: math.budget,
            });
            o.flight.record(TraceEvent::EpochOpen {
                epoch: self.epoch as u64,
            });
        }
        self.last_joint_plan = Some(JointPlanRecord {
            streams: stream_slots,
            budget_per_seg_total: math.budget,
            fair_cores: math.fair,
            lease_usd: math.lease,
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Durability: journaling, snapshots, recovery.
// ---------------------------------------------------------------------

impl<'a> IngestRuntime<'a> {
    /// Append a record to the journal (no-op without durability or while
    /// replaying). The handle opens lazily on the first accepted event
    /// ([`ensure_wal`](Self::ensure_wal)).
    fn wal_append(&mut self, rec: &WalRecord) -> Result<(), SkyError> {
        if self.replaying || self.dur.is_none() {
            return Ok(());
        }
        self.ensure_wal()?;
        let wal = self.wal.as_mut().expect("journal just opened");
        if wal.next_seq() == 0 {
            // First record ever: pin the run's planning configuration, so a
            // journal-only recovery replays *this* run's timeline instead of
            // trusting the recovering caller's RuntimeConfig. (With
            // snapshots the same fields travel in runtime.ckpt.)
            let config = WalRecord::Config {
                seed: self.seed,
                shared_budget_usd: self.shared_budget_usd,
                cost_model: self.cost_model,
                replan_interval: self.replan_interval,
                total_cores: self.total_cores,
                dedup: self.dedup.as_ref().map(|c| *c.policy()),
            };
            wal.append(&config)?;
        }
        let t = self.obs.as_ref().map(|_| Instant::now());
        self.wal
            .as_mut()
            .expect("journal just opened")
            .append(rec)?;
        if let (Some(o), Some(t)) = (self.obs.as_ref(), t) {
            o.registry.record(HistId::WalAppend, t.elapsed());
            o.registry.inc(CounterId::WalAppends);
        }
        Ok(())
    }

    /// Journal a record describing a state change that has **already been
    /// committed** (admissions, barrier settlements — records only knowable
    /// post-commit). An append failure here poisons the runtime: see the
    /// [`poisoned`](Self#structfield.poisoned) field.
    fn wal_append_committed(&mut self, rec: &WalRecord) -> Result<(), SkyError> {
        let r = self.wal_append(rec);
        self.poison_on_err(r)
    }

    /// Poison the runtime if a step that follows a committed state change
    /// failed, recording the poisoning in the flight recorder and dumping
    /// the ring — the post-mortem a poisoned runtime leaves behind. Hands
    /// the result back.
    fn poison_on_err(&mut self, r: Result<(), SkyError>) -> Result<(), SkyError> {
        if let Err(e) = &r {
            let detail = e.to_string();
            if let Some(o) = &self.obs {
                o.flight.record(TraceEvent::Poisoned {
                    detail: detail.clone(),
                });
                o.flight.dump("poisoned");
            }
            self.poisoned = Some(detail);
        }
        r
    }

    /// Journal a barrier settlement, followed — when dedup is enabled — by
    /// the cumulative dedup counters the settled epochs produced. Replay
    /// cross-checks both, so a recovered cache that replays a hit as a miss
    /// (or vice versa) surfaces as typed journal divergence instead of a
    /// silent drift.
    fn wal_append_barrier(&mut self) -> Result<(), SkyError> {
        self.wal_append_committed(&WalRecord::Barrier { epoch: self.epoch })?;
        if self.dedup.is_some() {
            let (hits, lookups) = self.dedup_totals();
            self.wal_append_committed(&WalRecord::DedupHit { hits, lookups })?;
        }
        Ok(())
    }

    /// Cumulative dedup hits and lookups over every slot — active sessions,
    /// settling streams, and closed outcomes alike.
    fn dedup_totals(&self) -> (u64, u64) {
        let mut hits = 0u64;
        let mut lookups = 0u64;
        for slot in &self.slots {
            let s = match slot {
                RtSlot::Active(a) => match &a.session {
                    Some(sess) => sess.dedup_stats(),
                    None => a
                        .outcome
                        .as_ref()
                        .map(|o| o.outcome.dedup)
                        .unwrap_or_default(),
                },
                RtSlot::Closed(o) => o.outcome.dedup,
            };
            hits += s.hits();
            lookups += s.lookups;
        }
        (hits, lookups)
    }

    /// Reject every operation once memory and journal have diverged.
    fn check_poisoned(&self) -> Result<(), SkyError> {
        match &self.poisoned {
            Some(detail) => Err(SkyError::CorruptWal {
                detail: format!(
                    "runtime poisoned by a journal append failure after a committed state \
                     change ({detail}); rebuild from disk via recover()"
                ),
            }),
            None => Ok(()),
        }
    }

    /// Open the journal handle if durability is configured and it is not
    /// open yet. A directory that already holds a journal body or a
    /// snapshot is rejected — a dirty directory must go through
    /// [`recover`](Self::recover), not be silently appended to.
    fn ensure_wal(&mut self) -> Result<(), SkyError> {
        let Some(dur) = &self.dur else {
            return Ok(());
        };
        if self.wal.is_some() {
            return Ok(());
        }
        let wal_file = wal::wal_file(&dur.dir);
        let has_journal_body = wal_file
            .metadata()
            .map(|m| m.len() > wal::HEADER_LEN)
            .unwrap_or(false);
        if has_journal_body || wal::ckpt_file(&dur.dir).exists() {
            return Err(SkyError::CorruptWal {
                detail: format!(
                    "{} already holds a journal or snapshot; recover() it instead of \
                     opening a fresh runtime over it",
                    dur.dir.display()
                ),
            });
        }
        self.wal = Some(Wal::open(&dur.dir, 0)?);
        Ok(())
    }

    /// Snapshot when the checkpoint cadence came due.
    fn maybe_snapshot(&mut self) -> Result<(), SkyError> {
        let Some(dur) = &self.dur else {
            return Ok(());
        };
        if self.replaying || dur.checkpoint_every_epochs == 0 {
            return Ok(());
        }
        if self.epoch.saturating_sub(self.last_ckpt_epoch) < dur.checkpoint_every_epochs {
            return Ok(());
        }
        self.checkpoint_now()
    }

    /// Atomically snapshot the full runtime state to `runtime.ckpt` and
    /// truncate the journal it covers. Requires durability; called
    /// automatically at the configured epoch cadence, callable explicitly
    /// for a clean shutdown point.
    pub fn checkpoint_now(&mut self) -> Result<(), SkyError> {
        self.check_poisoned()?;
        let Some(dur) = self.dur.clone() else {
            return Err(SkyError::InvalidInput {
                what: "checkpoint_now() requires RuntimeConfig::durability",
            });
        };
        // Open (and create) the journal first, so a snapshot taken before
        // any journaled event leaves a coherent directory pair behind —
        // never a snapshot-without-journal the lazy-open path would then
        // reject as dirty.
        self.ensure_wal()?;
        let covered_seq = self.wal.as_ref().map_or(0, Wal::next_seq);
        // Flush the journal to stable storage at snapshot points (the
        // per-record path stops at the page cache — see `Wal::append`), so
        // after a checkpoint the directory as a whole is power-loss
        // consistent up to the snapshot.
        if let Some(w) = self.wal.as_mut() {
            let t = self.obs.as_ref().map(|_| Instant::now());
            w.sync()?;
            if let (Some(o), Some(t)) = (self.obs.as_ref(), t) {
                o.registry.record(HistId::WalFsync, t.elapsed());
                o.registry.inc(CounterId::WalFsyncs);
            }
        }
        let snapshot = self.snapshot(covered_seq);
        wal::write_snapshot(&dur.dir, &snapshot)?;
        if let Some(w) = self.wal.as_mut() {
            w.reset()?;
        }
        self.last_ckpt_epoch = self.epoch;
        Ok(())
    }

    /// Build a point-in-time snapshot of every slot and the epoch
    /// bookkeeping. Called at API-call boundaries, where a slot is never in
    /// a transient half-settled state.
    fn snapshot(&self, covered_seq: u64) -> wal::RuntimeSnapshot {
        let slots = self
            .slots
            .iter()
            .map(|slot| match slot {
                RtSlot::Active(a) => match (&a.session, &a.outcome) {
                    (Some(session), _) => SlotSnapshot::Active {
                        id: a.id.clone(),
                        session: Box::new(session.checkpoint()),
                        mailbox_capacity: a.mailbox.capacity(),
                        envelopes: a
                            .mailbox
                            .iter()
                            .map(|env| match env {
                                Envelope::Segment(seg) => Some(*seg),
                                Envelope::Close => None,
                            })
                            .collect(),
                        close_queued: a.mailbox.close_queued(),
                        used: a.used,
                        quota: a.quota,
                        processed: a.processed,
                    },
                    (None, Some(outcome)) => SlotSnapshot::Closed(outcome.clone()),
                    (None, None) => unreachable!("settled stream keeps its outcome"),
                },
                RtSlot::Closed(o) => SlotSnapshot::Closed(o.clone()),
            })
            .collect();
        wal::RuntimeSnapshot {
            covered_seq,
            seed: self.seed,
            shared_budget_usd: self.shared_budget_usd,
            cost_model: self.cost_model,
            replan_interval: self.replan_interval,
            total_cores: self.total_cores,
            epoch: self.epoch,
            joint_plans: self.joint_plans,
            processed_total: self.processed_total,
            barrier_pending: self.barrier_pending,
            opens_since_dispatch: self.opens_since_dispatch,
            last_joint_plan: self.last_joint_plan.clone(),
            dedup: self.dedup.clone(),
            slots,
        }
    }

    /// Rebuild a runtime from its durability directory after a crash: load
    /// the latest checkpoint snapshot (if any), replay the journal tail
    /// through the normal `open_stream` / `push` / `close_stream` path, and
    /// resume journaling. The recovered runtime is **bitwise identical** —
    /// per-stream outcomes, joint-plan history, spend — to the uninterrupted
    /// runtime at the durable prefix, for any shard count (`cfg.shards` may
    /// even differ from the crashed process).
    ///
    /// `resolve` maps each journaled stream `(slot, workload_id)` back to
    /// its fitted model and workload — the same pairing the crashed process
    /// used, typically reloaded from the [`crate::offline::KnowledgeBase`]
    /// living beside the durability directory. A torn journal tail (crash
    /// mid-append) is detected, counted in
    /// [`RecoveryReport::discarded_bytes`], and physically truncated; the
    /// lost suffix was never acknowledged, so the driver re-feeds it
    /// starting from [`RecoveredStream::accepted_segments`]. Anything else
    /// that is inconsistent — bad magic, mid-file corruption, a replay that
    /// diverges from the journaled barrier sequence — fails with typed
    /// [`SkyError::CorruptWal`].
    pub fn recover(
        cfg: RuntimeConfig,
        resolve: &StreamResolver<'a, '_>,
    ) -> Result<(Self, RecoveryReport), SkyError> {
        let Some(dur) = cfg.durability.clone() else {
            return Err(SkyError::InvalidInput {
                what: "recover() requires RuntimeConfig::durability",
            });
        };
        let snapshot = wal::read_snapshot(&dur.dir)?;
        let scan = wal::read_journal(&dur.dir)?;
        let resumed_from_snapshot = snapshot.is_some();

        let mut rt = Self::new(RuntimeConfig {
            durability: None,
            ..cfg
        });
        let mut next_seq = 0;
        if let Some(snap) = snapshot {
            next_seq = snap.covered_seq;
            rt.seed = snap.seed;
            rt.shared_budget_usd = snap.shared_budget_usd;
            rt.cost_model = snap.cost_model;
            rt.replan_interval = snap.replan_interval;
            rt.total_cores = snap.total_cores;
            rt.epoch = snap.epoch;
            rt.joint_plans = snap.joint_plans;
            rt.processed_total = snap.processed_total;
            rt.barrier_pending = snap.barrier_pending;
            rt.opens_since_dispatch = snap.opens_since_dispatch;
            rt.last_joint_plan = snap.last_joint_plan;
            rt.dedup = snap.dedup;
            for (slot, s) in snap.slots.into_iter().enumerate() {
                rt.slots.push(match s {
                    SlotSnapshot::Active {
                        id,
                        session,
                        mailbox_capacity,
                        envelopes,
                        close_queued,
                        used,
                        quota,
                        processed,
                    } => {
                        let (model, workload) =
                            resolve(slot, &id).ok_or(SkyError::InvalidInput {
                                what: "recovery resolver returned no model/workload for a stream",
                            })?;
                        session
                            .validate_against(model)
                            .map_err(|detail| SkyError::CorruptWal { detail })?;
                        let mailbox = Mailbox::restore(
                            mailbox_capacity,
                            envelopes.into_iter().map(|env| match env {
                                Some(seg) => Envelope::Segment(seg),
                                None => Envelope::Close,
                            }),
                            close_queued,
                        );
                        let mut restored = IngestSession::resume(model, workload, *session);
                        if let Some(o) = &rt.obs {
                            // Like the rest of the session's hot scratch,
                            // the obs handle is derived wiring, not part of
                            // the checkpoint — re-attach it on resume.
                            restored.attach_obs(o.clone());
                        }
                        RtSlot::Active(Box::new(RtStream {
                            id,
                            session: Some(restored),
                            mailbox,
                            used,
                            quota,
                            processed,
                            last_report: None,
                            outcome: None,
                        }))
                    }
                    SlotSnapshot::Closed(o) => RtSlot::Closed(o),
                });
            }
        }

        // Replay the journal tail through the normal ingest path. The
        // runtime is a deterministic function of the event sequence, so the
        // replayed state is bitwise the durable prefix's state.
        rt.replaying = true;
        let mut replayed_records = 0;
        let mut replayed_segments = 0;
        let mut replay_errors = 0;
        // A journaled-then-failed event is not corruption: the original run
        // hit the same deterministic error, returned it to its caller, and
        // kept serving — tolerating it here reproduces exactly that state.
        // *Structural* errors, by contrast, cannot be produced by our own
        // writer (events are validated before journaling), so they mark a
        // crafted or inconsistent journal.
        let structural = |e: &SkyError| {
            matches!(
                e,
                SkyError::UnknownStream { .. }
                    | SkyError::StreamClosed { .. }
                    | SkyError::Overloaded { .. }
                    // Only *accepted* arrivals are journaled, and a replayed
                    // arrival passes the same gate with the same watermark —
                    // so a late rejection during replay marks an
                    // inconsistent journal, not a reproduced outcome.
                    | SkyError::LateSegment { .. }
            )
        };
        for (seq, rec) in scan.records {
            if seq < next_seq {
                continue; // folded into the snapshot
            }
            next_seq = seq + 1;
            replayed_records += 1;
            if let Some(o) = &rt.obs {
                o.registry.inc(CounterId::ReplayedRecords);
                if replayed_records % 256 == 0 {
                    o.flight.record(TraceEvent::ReplayProgress {
                        records: replayed_records as u64,
                        segments: replayed_segments as u64,
                    });
                }
            }
            let diverged = |e: SkyError| SkyError::CorruptWal {
                detail: format!("replay diverged at seq {seq}: {e}"),
            };
            let mut tolerate = |r: Result<(), SkyError>| -> Result<(), SkyError> {
                match r {
                    Ok(()) => Ok(()),
                    Err(e) if structural(&e) => Err(diverged(e)),
                    Err(_) => {
                        replay_errors += 1;
                        Ok(())
                    }
                }
            };
            match rec {
                WalRecord::Config {
                    seed,
                    shared_budget_usd,
                    cost_model,
                    replan_interval,
                    total_cores,
                    dedup,
                } => {
                    rt.seed = seed;
                    rt.shared_budget_usd = shared_budget_usd;
                    rt.cost_model = cost_model;
                    rt.replan_interval = replan_interval;
                    rt.total_cores = total_cores;
                    rt.dedup = dedup.map(DedupCache::new);
                }
                WalRecord::Flush => tolerate(rt.flush())?,
                WalRecord::Open {
                    slot,
                    workload_id,
                    options,
                } => {
                    let (model, workload) =
                        resolve(slot, &workload_id).ok_or(SkyError::InvalidInput {
                            what: "recovery resolver returned no model/workload for a stream",
                        })?;
                    // An Open record exists only for a *successful*
                    // admission, so a replay failure here is always a
                    // divergence.
                    let id = rt
                        .open_stream(workload_id, model, workload, options)
                        .map_err(diverged)?;
                    if id.index() != slot {
                        return Err(SkyError::CorruptWal {
                            detail: format!(
                                "replay diverged at seq {seq}: admission landed in slot {} \
                                 instead of journaled slot {slot}",
                                id.index()
                            ),
                        });
                    }
                }
                WalRecord::Segs { slot, segs } => {
                    replayed_segments += segs.len();
                    let r = rt.ingest(StreamId::from_index(slot), &segs);
                    tolerate(r.map_err(|(_, e)| e))?;
                }
                WalRecord::Close { slot } => {
                    tolerate(rt.close_stream(StreamId::from_index(slot)))?;
                }
                WalRecord::Barrier { epoch } => {
                    if rt.epoch != epoch {
                        return Err(SkyError::CorruptWal {
                            detail: format!(
                                "replay diverged at seq {seq}: journal settled epoch {epoch}, \
                                 replay stands at {}",
                                rt.epoch
                            ),
                        });
                    }
                }
                WalRecord::DedupHit { hits, lookups } => {
                    let (h, l) = rt.dedup_totals();
                    if (h, l) != (hits, lookups) {
                        return Err(SkyError::CorruptWal {
                            detail: format!(
                                "replay diverged at seq {seq}: journal settled {hits} dedup \
                                 hits / {lookups} lookups, replay stands at {h} / {l}",
                            ),
                        });
                    }
                }
            }
        }
        rt.replaying = false;
        if replayed_records > 0 {
            if let Some(o) = &rt.obs {
                o.flight.record(TraceEvent::ReplayProgress {
                    records: replayed_records as u64,
                    segments: replayed_segments as u64,
                });
            }
        }

        // Resume journaling where the durable prefix ended; when anything
        // was actually recovered, persist a fresh snapshot so the next
        // crash does not replay this journal again. (A recovery of an empty
        // directory is a fresh start and leaves the directory clean.)
        rt.dur = Some(dur.clone());
        rt.wal = Some(Wal::open(&dur.dir, next_seq)?);
        rt.last_ckpt_epoch = rt.epoch;
        if dur.checkpoint_every_epochs > 0 && (resumed_from_snapshot || replayed_records > 0) {
            rt.checkpoint_now()?;
        }

        let streams = rt
            .slots
            .iter()
            .enumerate()
            .map(|(slot, s)| match s {
                RtSlot::Active(a) => RecoveredStream {
                    slot,
                    workload_id: a.id.clone(),
                    // Gate-held segments are accepted input too: the driver
                    // must not re-feed them.
                    accepted_segments: a.processed
                        + a.mailbox.segments_queued()
                        + a.session.as_ref().map_or(0, IngestSession::reorder_held),
                    closed: a.mailbox.close_queued(),
                },
                RtSlot::Closed(o) => RecoveredStream {
                    slot,
                    workload_id: o.workload_id.clone(),
                    accepted_segments: o.outcome.segments,
                    closed: true,
                },
            })
            .collect();
        let epoch = rt.epoch;
        Ok((
            rt,
            RecoveryReport {
                streams,
                replayed_records,
                replayed_segments,
                replay_errors,
                discarded_bytes: scan.discarded_bytes,
                resumed_from_snapshot,
                epoch,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkyscraperConfig;
    use crate::multistream::joint_plan;
    use crate::offline::run_offline;
    use crate::online::session::{ClassificationMode, ForecastMode};
    use crate::testkit::ToyWorkload;
    use vetl_lp::{solve, LpProblem, Relation};
    use vetl_sim::HardwareSpec;
    use vetl_video::{ContentParams, Recording, SyntheticCamera};

    /// What the next barrier plans over: every active stream's model and
    /// forecast, in slot order.
    fn pending_inputs<'a>(rt: &IngestRuntime<'a>) -> (Vec<&'a FittedModel>, Vec<Vec<f64>>) {
        let sessions: Vec<_> = rt.active().filter_map(|s| s.session.as_ref()).collect();
        let models = sessions.iter().map(|s| s.model()).collect();
        let rs = sessions
            .iter()
            .map(|s| s.forecast_distribution().expect("forecast"))
            .collect();
        (models, rs)
    }

    /// Eqs. 7–9 built as an explicit LP and solved by the simplex: the
    /// optimal objective, or `None` when infeasible.
    fn simplex_objective(models: &[&FittedModel], rs: &[Vec<f64>], budget: f64) -> Option<f64> {
        let mut lp = LpProblem::new();
        let mut budget_terms = Vec::new();
        let mut rows = Vec::new();
        for (m, r) in models.iter().zip(rs) {
            for (c, &rc) in r.iter().enumerate() {
                let mut row = Vec::new();
                for (k, config) in m.configs.iter().enumerate() {
                    let var = lp.add_var("a", rc * m.categories.avg_quality(k, c));
                    budget_terms.push((var, rc * config.work_mean));
                    row.push((var, 1.0));
                }
                rows.push(row);
            }
        }
        lp.add_constraint(budget_terms, Relation::Le, budget);
        for row in rows {
            lp.add_constraint(row, Relation::Eq, 1.0);
        }
        match solve(&lp) {
            Ok(sol) => Some(sol.objective),
            Err(vetl_lp::LpError::Infeasible) => None,
            Err(e) => panic!("simplex failed: {e}"),
        }
    }

    /// The plan a barrier installed, checked against the simplex over the
    /// same inputs: equal objective, budget kept. Returns whether the
    /// budget bound inside a frontier step (some row is fractional).
    fn check_barrier(rt: &IngestRuntime<'_>, models: &[&FittedModel], rs: &[Vec<f64>]) -> bool {
        let budget = rt.last_joint_plan().expect("planned").budget_per_seg_total;
        let plans = joint_plan(models, rs, budget).expect("plan");
        let quality: f64 = plans
            .iter()
            .zip(models.iter().zip(rs))
            .map(|(p, (m, r))| p.expected_quality(r, |k, c| m.categories.avg_quality(k, c)))
            .sum();
        let cost: f64 = plans
            .iter()
            .zip(models.iter().zip(rs))
            .map(|(p, (m, r))| p.expected_cost(r, |k| m.configs[k].work_mean))
            .sum();
        let lp = simplex_objective(models, rs, budget).expect("admission keeps the LP feasible");
        assert!(
            (quality - lp).abs() <= 1e-9 * lp.abs().max(1.0),
            "barrier {}: walk {quality} vs simplex {lp}",
            rt.joint_plans()
        );
        assert!(
            cost <= budget * (1.0 + 1e-12),
            "plan costs {cost} > {budget}"
        );
        plans.iter().zip(models).any(|(p, m)| {
            (0..m.n_categories()).any(|c| p.histogram(c).iter().any(|&a| a > 0.0 && a < 1.0))
        })
    }

    /// The history-trim oracle through a 4-stream runtime: after every push,
    /// each session's forecast (what the next barrier's joint LP reads) is
    /// bit-equal to the forecast from its whole observed history, rebuilt
    /// outside the runtime, over more than three forecaster windows and
    /// planned intervals. Ground-truth classification makes the observed
    /// history the ground truth; the ground-truth forecast runs without a
    /// feed, so it reads the session's trailing ground truth.
    #[test]
    fn runtime_forecasts_match_the_full_history_across_trims() {
        const V: usize = 4;
        const PUSHES: usize = 2_800;
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(7), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let hyper = SkyscraperConfig {
            forecast_input_secs: 20.0 * 60.0,
            planned_interval_secs: 30.0 * 60.0,
            ..SkyscraperConfig::fast_test()
        };
        let (model, _) = run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(4),
            &hyper,
        )
        .expect("fit");
        let online = Recording::record(&mut cam, 2.0 * 3_600.0);
        let segs = online.segments();
        let gt: Vec<usize> = segs
            .iter()
            .map(|s| model.ground_truth_category(&w, &s.content))
            .collect();
        let n_c = model.n_categories();
        let span = (model.hyper.planned_interval_secs / model.seg_len) as usize;
        let offset = |v: usize| v * 200;
        for forecast in [ForecastMode::Model, ForecastMode::GroundTruth] {
            let mut rt = IngestRuntime::new(RuntimeConfig {
                shards: 2,
                shared_cloud_budget_usd: 0.02,
                replan_interval_secs: Some(240.0),
                total_cores: Some(V as f64),
                ..RuntimeConfig::default()
            });
            let opts = IngestOptions {
                classification: ClassificationMode::GroundTruth,
                forecast,
                ..IngestOptions::default()
            };
            let ids: Vec<StreamId> = (0..V)
                .map(|v| {
                    rt.open_stream(format!("cam-{v}"), &model, &w, opts.clone())
                        .expect("admit")
                })
                .collect();
            for i in 0..PUSHES {
                for (v, &id) in ids.iter().enumerate() {
                    rt.push(id, &segs[offset(v) + i]).expect("push");
                }
                for (v, slot) in rt.slots.iter().enumerate() {
                    let RtSlot::Active(a) = slot else {
                        panic!("no stream closes");
                    };
                    let session = a.session.as_ref().expect("open");
                    let seen = &gt[offset(v)..offset(v) + session.segments_pushed()];
                    let expected = match forecast {
                        ForecastMode::Model => {
                            let mut full = model.tail.categories.clone();
                            full.extend_from_slice(seen);
                            model.forecaster.forecast(&full, model.seg_len)
                        }
                        _ => {
                            let mut r = vec![0.0; n_c];
                            let window = &seen[seen.len().saturating_sub(span)..];
                            for &c in window {
                                r[c] += 1.0;
                            }
                            if window.is_empty() {
                                vec![1.0 / n_c as f64; n_c]
                            } else {
                                let n = window.len() as f64;
                                r.iter().map(|x| x / n).collect()
                            }
                        }
                    };
                    let r = session.forecast_distribution().expect("forecast");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&r),
                        bits(&expected),
                        "{forecast:?} stream {v} push {i}"
                    );
                }
            }
            let out = rt.finish().expect("finish");
            assert!(out.streams.iter().all(|s| s.outcome.segments == PUSHES));
        }
    }

    /// A V = 64 fleet through the runtime: every joint plan — 64 admissions
    /// and every epoch barrier — has the simplex's optimal objective.
    #[test]
    fn every_barrier_plan_matches_the_simplex_at_v64() {
        const V: usize = 64;
        const QUOTA: usize = 10;
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(5), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let (model, _) = run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(4),
            &SkyscraperConfig::fast_test(),
        )
        .expect("fit");
        let online = Recording::record(&mut cam, 3.0 * 3_600.0);
        let segs = online.segments();

        let mut rt = IngestRuntime::new(RuntimeConfig {
            shards: 2,
            shared_cloud_budget_usd: 0.02,
            replan_interval_secs: Some(QUOTA as f64 * model.seg_len),
            total_cores: Some(V as f64),
            ..RuntimeConfig::default()
        });
        let mut bound = 0;
        let ids: Vec<StreamId> = (0..V)
            .map(|v| {
                let id = rt
                    .open_stream(format!("cam-{v}"), &model, &w, IngestOptions::default())
                    .expect("admit");
                let (models, rs) = pending_inputs(&rt);
                bound += usize::from(check_barrier(&rt, &models, &rs));
                id
            })
            .collect();
        // Each stream reads its own stretch of video, so forecasts differ.
        let stride = segs.len() / V;
        for epoch in 0..6 {
            let (models, rs) = pending_inputs(&rt);
            let plans_before = rt.joint_plans();
            for (v, &id) in ids.iter().enumerate() {
                let from = v * stride + epoch * QUOTA;
                rt.push_batch(id, &segs[from..from + QUOTA]).expect("push");
            }
            if epoch > 0 {
                assert_eq!(rt.joint_plans(), plans_before + 1, "one barrier per epoch");
                bound += usize::from(check_barrier(&rt, &models, &rs));
            }
        }
        assert_eq!(rt.joint_plans(), V + 5);
        assert!(bound >= V / 4, "a frontier step bound only {bound} plans");
    }
}
