//! Multi-stream ingestion (Appendix D).
//!
//! Skyscraper's techniques extend naturally to many streams. The offline
//! phase runs independently per stream; online, only the knob planner
//! changes: a single **joint LP** allocates the shared budget across all
//! streams' categories (Eqs. 7–9, the green-highlighted generalization of
//! Eqs. 2–4). Knob switching stays per-stream and independent, except that
//! cloud credits are drawn from a shared wallet.
//!
//! [`MultiStreamServer`] is the driver for that generalization: it
//! multiplexes N concurrent [`IngestSession`]s. Streams are admitted with
//! [`MultiStreamServer::open_stream`] (admission control rejects a stream
//! whose cheapest configuration cannot run in real time on its fair share
//! of the cluster), segments are fed per stream with
//! [`MultiStreamServer::push`] (or interleaved with
//! [`MultiStreamServer::push_round_robin`]), and streams can leave mid-run
//! with [`MultiStreamServer::close_stream`].
//!
//! ## Epochs and wallet leases
//!
//! Time is divided into **planning epochs**: every stream may process up to
//! its quota of `round(replan_interval / seg_len)` segments per epoch. When
//! every active stream has exhausted its quota, the next push crosses the
//! **epoch barrier**: the coordinator settles the wallet, re-runs the joint
//! LP (Eqs. 7–9) over all streams' fresh forecasts, refills the wallet, and
//! installs the new plans. Within an epoch the shared wallet is **pre-split
//! into per-stream leases** (`budget / V` each): a stream spends only from
//! its own lease, so the per-stream outcome is independent of how pushes to
//! *different* streams interleave within the epoch. That independence is
//! what lets [`crate::runtime::IngestRuntime`] shard the same semantics
//! across worker threads and stay bitwise identical to this sequential
//! server for every shard count.
//!
//! A push that would advance a stream past the barrier while other active
//! streams still have quota is rejected with [`SkyError::EpochBarrier`] —
//! feed the lagging streams, or [`close_stream`](MultiStreamServer::close_stream)
//! them. A closed stream's core share and wallet lease are released and
//! redistributed by the next joint plan ([`MultiStreamServer::last_joint_plan`]
//! records each plan's inputs).

use vetl_lp::LpBasis;
use vetl_sim::CostModel;
use vetl_video::Segment;

use crate::dedupe::{DedupCache, DedupPolicy};
use crate::error::SkyError;
use crate::offline::FittedModel;
use crate::online::plan::KnobPlan;
use crate::online::planner::walk_plans;
use crate::online::session::{IngestOptions, IngestOutcome, IngestSession, StepReport};
use crate::workload::Workload;

/// Joint knob planning across streams (Eqs. 7–9), by the same threshold
/// walk as [`crate::plan_knobs`], with config `k` priced at its mean work
/// `config.work_mean` on every category.
///
/// `rs[v]` is stream `v`'s forecast; `budget_per_seg_total` the shared
/// budget in core-seconds per segment round summed over streams. Invalid
/// admissions (no streams, one forecast missing, a forecast whose dimension
/// disagrees with its model, a NaN, infinite or negative forecast entry, a
/// NaN budget) are rejected with typed [`SkyError`]s so a server can refuse
/// them instead of crashing. A budget below every stream's cheapest plan
/// gives every stream its cheapest configuration.
pub fn joint_plan(
    models: &[&FittedModel],
    rs: &[Vec<f64>],
    budget_per_seg_total: f64,
) -> Result<Vec<KnobPlan>, SkyError> {
    if models.is_empty() {
        return Err(SkyError::NoStreams);
    }
    if rs.len() != models.len() {
        return Err(SkyError::StreamCountMismatch {
            what: "forecast",
            expected: models.len(),
            got: rs.len(),
        });
    }
    walk_plans(models, rs, budget_per_seg_total, |m, k, _| {
        m.configs[k].work_mean
    })
}

/// [`joint_plan`], ignoring `_basis`: plans carry no solver state. Kept
/// because the benchmark's planner probe calls it.
pub fn joint_plan_warm(
    models: &[&FittedModel],
    rs: &[Vec<f64>],
    budget_per_seg_total: f64,
    _basis: &mut LpBasis,
) -> Result<Vec<KnobPlan>, SkyError> {
    joint_plan(models, rs, budget_per_seg_total)
}

/// Handle of an admitted stream (index into the server's session table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

impl StreamId {
    /// Index of the stream in admission order.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Rebuild a handle from its admission-order slot index — the inverse
    /// of [`index`](Self::index). Slots stay stable under churn and across
    /// [`crate::runtime::IngestRuntime::recover`], so a driver resuming
    /// after a crash re-derives its handles from the recovery report's
    /// slots. A handle for a slot that was never admitted is rejected
    /// typed (`UnknownStream`) by every server/runtime operation.
    pub const fn from_index(idx: usize) -> Self {
        Self(idx)
    }
}

/// Per-stream outcome of a multi-stream run.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The identifier the stream was admitted under.
    pub workload_id: String,
    /// The stream's full ingestion outcome.
    pub outcome: IngestOutcome,
}

/// Outcome of a multi-stream run.
#[derive(Debug, Clone, Default)]
pub struct MultiOutcome {
    /// Per-stream results, in admission order.
    pub streams: Vec<StreamOutcome>,
    /// Cloud dollars drawn from the shared wallet.
    pub cloud_usd: f64,
    /// Joint quality `Σ_v quality_v` (the paper's multi-stream objective).
    pub joint_quality: f64,
}

/// Seed stride separating per-stream RNGs (golden-ratio increment). Shared
/// with [`crate::runtime::IngestRuntime`] so the sharded runtime derives
/// identical per-stream seeds.
pub(crate) const STREAM_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Inputs and derived splits of one joint LP run — recorded at every epoch
/// barrier so callers can observe how admission and churn redistribute the
/// shared resources.
#[derive(Debug, Clone, PartialEq)]
pub struct JointPlanRecord {
    /// Slot indices of the streams the plan covered, in admission order.
    pub streams: Vec<usize>,
    /// Total budget handed to the LP, core-seconds per segment round
    /// (Eq. 8).
    pub budget_per_seg_total: f64,
    /// Fair per-stream share of the cluster, reference cores.
    pub fair_cores: f64,
    /// Per-stream cloud lease for the new epoch, dollars.
    pub lease_usd: f64,
}

/// Derived quantities of one epoch barrier, shared between the sequential
/// server and the sharded [`crate::runtime::IngestRuntime`] so the two
/// compute bit-identical plans from the same inputs.
pub(crate) struct BarrierMath {
    /// Fair per-stream cluster share, reference cores.
    pub(crate) fair: f64,
    /// Replanning interval in stream seconds.
    pub(crate) interval: f64,
    /// Eq. 8 budget handed to the joint LP, core-seconds per segment round.
    pub(crate) budget: f64,
    /// Per-stream cloud lease for the new epoch, dollars.
    pub(crate) lease: f64,
}

/// Compute the barrier splits for a set of active models.
pub(crate) fn barrier_math(
    models: &[&FittedModel],
    total_cores: f64,
    shared_budget_usd: f64,
    cost_model: &CostModel,
    interval_override: Option<f64>,
) -> BarrierMath {
    let v = models.len() as f64;
    let fair = (total_cores / v).floor();
    let interval = interval_override.unwrap_or_else(|| {
        models
            .iter()
            .map(|m| m.hyper.planned_interval_secs)
            .fold(f64::INFINITY, f64::min)
    });
    // Shared budget per segment round: every stream's fair on-premise share
    // plus the cloud credits amortized over the epoch's rounds (footnote 4
    // generalized to Eq. 8).
    let onprem: f64 = models.iter().map(|m| fair * m.seg_len).sum();
    let max_seg_len = models
        .iter()
        .map(|m| m.seg_len)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let rounds = (interval / max_seg_len).max(1.0);
    let budget = onprem + cost_model.cloud_usd_to_core_secs(shared_budget_usd) / rounds;
    BarrierMath {
        fair,
        interval,
        budget,
        lease: shared_budget_usd / v,
    }
}

/// Segment quota of one stream per planning epoch.
pub(crate) fn epoch_quota(interval: f64, seg_len: f64) -> usize {
    ((interval / seg_len).round() as usize).max(1)
}

/// Shared ingress validation: a segment with non-finite or non-positive
/// fields would poison backlog/quality accounting downstream (and, in the
/// durable runtime, leave a journal record whose replay always fails), so
/// both the sequential server and the sharded runtime reject it typed
/// before touching any state.
pub(crate) fn validate_segment(seg: &Segment) -> Result<(), SkyError> {
    if !seg.duration.is_finite()
        || seg.duration <= 0.0
        || !seg.bytes.is_finite()
        || seg.bytes < 0.0
        || !seg.content.difficulty.is_finite()
        || !seg.content.activity.is_finite()
        || !seg.content.time.as_secs().is_finite()
    {
        return Err(SkyError::InvalidInput {
            what: "segment with non-finite or non-positive fields",
        });
    }
    Ok(())
}

/// Shared admission check: every already-active stream *and* the candidate
/// must still run their cheapest configuration in real time on the
/// post-admission fair share `⌊total / (V + 1)⌋`. Used verbatim by the
/// sequential server and the sharded runtime so the two admit and reject
/// identically.
pub(crate) fn admission_check(
    active_models: &[&FittedModel],
    candidate: &FittedModel,
    total_cores: f64,
) -> Result<(), SkyError> {
    let fair = (total_cores / (active_models.len() + 1) as f64).floor();
    let cheapest_rate = |m: &FittedModel| m.configs[m.cheapest()].work_mean / m.seg_len;
    let worst_rate = active_models
        .iter()
        .map(|m| cheapest_rate(m))
        .fold(cheapest_rate(candidate), f64::max);
    if fair <= 0.0 || worst_rate > fair {
        return Err(SkyError::UnderProvisioned {
            cheapest_work_rate: worst_rate,
            cluster_throughput: fair.max(0.0),
        });
    }
    Ok(())
}

/// Shared barrier computation: Eq. 8 splits plus the joint LP itself.
/// Nothing is mutated by this call, so callers can validate an admission
/// before committing anything. Both the sequential server and the sharded
/// runtime plan every epoch through this one function — bit-identical by
/// construction.
pub(crate) fn plan_epoch(
    models: &[&FittedModel],
    rs: &[Vec<f64>],
    total_cores: f64,
    shared_budget_usd: f64,
    cost_model: &CostModel,
    interval_override: Option<f64>,
) -> Result<(Vec<KnobPlan>, BarrierMath), SkyError> {
    if models.is_empty() {
        return Err(SkyError::NoStreams);
    }
    let math = barrier_math(
        models,
        total_cores,
        shared_budget_usd,
        cost_model,
        interval_override,
    );
    let plans = joint_plan(models, rs, math.budget)?;
    Ok((plans, math))
}

/// One admitted stream and its epoch bookkeeping.
pub(crate) struct ActiveStream<'a> {
    pub(crate) id: String,
    pub(crate) session: IngestSession<'a, dyn Workload + 'a>,
    /// Segments processed in the current planning epoch.
    pub(crate) used: usize,
    /// Segment quota per epoch, `round(replan_interval / seg_len)`.
    pub(crate) quota: usize,
}

/// A stream slot: admission order is slot order; closed streams keep their
/// settled outcome in place so [`StreamId`]s stay stable under churn.
enum StreamSlot<'a> {
    Active(Box<ActiveStream<'a>>),
    Closed(StreamOutcome),
}

/// A server multiplexing N concurrent ingestion sessions over a shared
/// cluster and a shared cloud wallet (Appendix D).
///
/// * **Admission** — [`open_stream`](Self::open_stream) gives every stream
///   a fair share `⌊cores / V⌋` of the cluster (pessimistic, but precludes
///   overflows without under-utilization because unused cores serve other
///   streams' tasks in the real executor) and rejects an admission that
///   would leave any stream — new or already admitted — unable to run its
///   cheapest configuration in real time on the shrunken share. Every
///   admission forces an epoch barrier so the new stream starts planned.
/// * **Planning** — at every epoch barrier one joint LP (Eqs. 7–9)
///   re-allocates the total budget across all active streams' categories;
///   the resulting per-stream plans are installed into the sessions, which
///   never re-plan on their own.
/// * **Wallet** — cloud credits are shared at epoch granularity: each
///   barrier refills the wallet and pre-splits it into equal per-stream
///   leases. Streams spend only from their own lease between barriers (see
///   the [module docs](self) for why that makes the semantics shardable).
/// * **Churn** — [`close_stream`](Self::close_stream) settles a stream
///   mid-run; its core share and lease are redistributed by the next joint
///   plan.
pub struct MultiStreamServer<'a> {
    slots: Vec<StreamSlot<'a>>,
    shared_budget_usd: f64,
    cost_model: CostModel,
    seed: u64,
    replan_interval: Option<f64>,
    total_cores: Option<f64>,
    joint_plans: usize,
    last_joint_plan: Option<JointPlanRecord>,
    /// Cross-stream dedup cache, shared by every admitted session. Frozen
    /// between barriers; each barrier merges the sessions' pending entries
    /// in stable slot order (see [`crate::dedupe`]).
    dedup: Option<DedupCache>,
    /// Flash-crowd admission damping ([`Self::with_admission_cap`]).
    admission_epoch_cap: Option<usize>,
    /// Streams admitted since a segment last made progress; checked before
    /// an admission mutates anything, reset by every successful push.
    opens_since_push: usize,
}

impl<'a> MultiStreamServer<'a> {
    /// Create a server with a shared per-epoch cloud budget.
    pub fn new(shared_cloud_budget_usd: f64, cost_model: CostModel, seed: u64) -> Self {
        Self {
            slots: Vec::new(),
            shared_budget_usd: shared_cloud_budget_usd,
            cost_model,
            seed,
            replan_interval: None,
            total_cores: None,
            joint_plans: 0,
            last_joint_plan: None,
            dedup: None,
            admission_epoch_cap: None,
            opens_since_push: 0,
        }
    }

    /// Override the joint replanning cadence (defaults to the smallest
    /// planned interval among admitted models).
    pub fn with_replan_interval(mut self, secs: f64) -> Self {
        self.replan_interval = Some(secs);
        self
    }

    /// Override the shared cluster size in reference cores (defaults to the
    /// first admitted model's provisioning).
    pub fn with_total_cores(mut self, cores: f64) -> Self {
        self.total_cores = Some(cores);
        self
    }

    /// Enable cross-stream dedup: one content-addressed result cache shared
    /// by every admitted stream, consulted on each push and refreshed at
    /// epoch barriers. The server's policy overrides whatever the per-stream
    /// [`IngestOptions`] carry, so all sessions agree on the cache scope.
    pub fn with_dedup(mut self, policy: DedupPolicy) -> Self {
        self.dedup = Some(DedupCache::new(policy));
        self
    }

    /// The shared dedup cache, when enabled.
    pub fn dedup_cache(&self) -> Option<&DedupCache> {
        self.dedup.as_ref()
    }

    /// Flash-crowd admission damping: at most `cap` streams may be admitted
    /// without a segment making progress in between. Beyond the cap,
    /// [`open_stream`](Self::open_stream) returns retryable
    /// [`SkyError::AdmissionDeferred`] before mutating anything — a
    /// synchronized fleet reconnect becomes a paced admission queue instead
    /// of an unbounded replanning storm. Disabled by default (bitwise
    /// unchanged behavior).
    pub fn with_admission_cap(mut self, cap: usize) -> Self {
        self.admission_epoch_cap = Some(cap);
        self
    }

    /// Streams currently active (admitted and not closed).
    pub fn n_streams(&self) -> usize {
        self.active().count()
    }

    /// Times the joint LP has run.
    pub fn joint_plans(&self) -> usize {
        self.joint_plans
    }

    /// Inputs and splits of the most recent joint plan.
    pub fn last_joint_plan(&self) -> Option<&JointPlanRecord> {
        self.last_joint_plan.as_ref()
    }

    /// Credits left in the shared wallet for the current epoch (the sum of
    /// the active streams' unspent leases).
    pub fn wallet_left(&self) -> f64 {
        if self.n_streams() == 0 {
            return self.shared_budget_usd;
        }
        self.active().map(|s| s.session.cloud_credits_left()).sum()
    }

    fn active(&self) -> impl Iterator<Item = &ActiveStream<'a>> {
        self.slots.iter().filter_map(|s| match s {
            StreamSlot::Active(a) => Some(a.as_ref()),
            StreamSlot::Closed(_) => None,
        })
    }

    /// Admit a stream: validate *every* stream (the admission shrinks all
    /// shares) against the post-admission fair share, then force an epoch
    /// barrier — settle the wallet, joint-replan over all streams including
    /// the new one, re-split the leases, and reset the epoch quotas.
    ///
    /// Rejects with [`SkyError::UnderProvisioned`] when any stream's
    /// cheapest configuration could no longer run in real time on the
    /// post-admission fair share (`cheapest_work_rate` carries the worst
    /// offender, `cluster_throughput` that share). A rejected or failed
    /// admission leaves the server exactly as it was.
    pub fn open_stream(
        &mut self,
        workload_id: impl Into<String>,
        model: &'a FittedModel,
        workload: &'a (dyn Workload + 'a),
        options: IngestOptions,
    ) -> Result<StreamId, SkyError> {
        // Flash-crowd damping fires before anything is validated or
        // mutated, so a deferred admission is traceless and retryable.
        if let Some(cap) = self.admission_epoch_cap {
            if self.opens_since_push >= cap {
                return Err(SkyError::AdmissionDeferred {
                    pending: self.opens_since_push,
                    cap,
                });
            }
        }
        let total = self
            .total_cores
            .unwrap_or_else(|| model.hardware.cluster.throughput());
        // Admission squeezes every admitted stream too — all of them must
        // still fit the shrunken share or the no-overflow guarantee breaks.
        let active_models: Vec<&FittedModel> = self.active().map(|s| s.session.model()).collect();
        admission_check(&active_models, model, total)?;
        let prev_total = self.total_cores;
        self.total_cores = Some(total);

        let slot = self.slots.len();
        let mut options = options;
        // Per-stream reported-quality noise must be independent across
        // streams even when the caller reuses one options template.
        options.seed = self
            .seed
            .wrapping_add((slot as u64).wrapping_mul(STREAM_SEED_STRIDE));
        // The server's dedup policy wins: every session must consult the
        // shared cache under the same policy or the scope check trips.
        options.dedup = self.dedup.as_ref().map(|c| *c.policy());
        let candidate = Box::new(ActiveStream {
            id: workload_id.into(),
            session: IngestSession::external(model, workload, options),
            used: 0,
            quota: 1,
        });
        // The barrier validates the joint LP before committing anything; a
        // failed admission leaves the server untouched.
        if let Err(e) = self.barrier(Some(candidate)) {
            self.total_cores = prev_total;
            return Err(e);
        }
        self.opens_since_push += 1;
        Ok(StreamId(slot))
    }

    /// Feed one segment to one stream. A push that starts a new epoch (all
    /// active streams exhausted their quotas) first crosses the barrier:
    /// settle, joint-replan, refill leases. A push that would outrun the
    /// barrier while other streams still hold quota is rejected with
    /// [`SkyError::EpochBarrier`].
    pub fn push(&mut self, stream: StreamId, seg: &Segment) -> Result<StepReport, SkyError> {
        validate_segment(seg)?;
        match self.slots.get(stream.0) {
            None => return Err(SkyError::UnknownStream { id: stream.0 }),
            Some(StreamSlot::Closed(_)) => return Err(SkyError::StreamClosed { id: stream.0 }),
            Some(StreamSlot::Active(a)) => {
                if a.used >= a.quota {
                    let waiting = self.active().filter(|s| s.used < s.quota).count();
                    if waiting > 0 {
                        return Err(SkyError::EpochBarrier {
                            stream: stream.0,
                            waiting_on: waiting,
                        });
                    }
                    self.barrier(None)?;
                }
            }
        }
        // Disjoint field borrows: the shared cache is read-only during the
        // push while the stream's session mutates — the cache only changes
        // at barriers.
        let cache = self.dedup.as_ref();
        let StreamSlot::Active(a) = &mut self.slots[stream.0] else {
            unreachable!("checked active above");
        };
        let report = a.session.push_with_cache(seg, cache)?;
        a.used += 1;
        // Segment progress reopens the flash-crowd admission window.
        self.opens_since_push = 0;
        Ok(report)
    }

    /// Close a stream mid-run: settle its session into its outcome
    /// immediately and release its core share and wallet lease — the *next*
    /// joint plan redistributes them across the remaining streams. The
    /// slot's [`StreamId`] stays valid for [`finish`](Self::finish) but
    /// rejects further pushes.
    pub fn close_stream(&mut self, stream: StreamId) -> Result<StreamOutcome, SkyError> {
        match self.slots.get(stream.0) {
            None => return Err(SkyError::UnknownStream { id: stream.0 }),
            Some(StreamSlot::Closed(_)) => return Err(SkyError::StreamClosed { id: stream.0 }),
            Some(StreamSlot::Active(_)) => {}
        }
        let taken = std::mem::replace(
            &mut self.slots[stream.0],
            StreamSlot::Closed(StreamOutcome {
                workload_id: String::new(),
                outcome: IngestOutcome::default(),
            }),
        );
        let StreamSlot::Active(a) = taken else {
            unreachable!("checked active above");
        };
        let settled = StreamOutcome {
            workload_id: a.id,
            outcome: a.session.finish(),
        };
        self.slots[stream.0] = StreamSlot::Closed(settled.clone());
        Ok(settled)
    }

    /// Interleave several pre-materialized streams round-robin (segment `i`
    /// of every stream before segment `i + 1` of any). A stream whose slice
    /// runs out while others continue is **closed** so it stops gating the
    /// epoch barrier (its share is redistributed at the next joint plan).
    /// Per-push failures are wrapped in [`SkyError::PushFailed`] carrying
    /// the offending [`StreamId`] instead of aborting the batch opaquely.
    /// Returns the number of segments pushed.
    pub fn push_round_robin(
        &mut self,
        streams: &[(StreamId, &[Segment])],
    ) -> Result<usize, SkyError> {
        let max_len = streams.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        let mut pushed = 0;
        for i in 0..max_len {
            for (id, segs) in streams {
                let wrap = |e: SkyError| SkyError::PushFailed {
                    stream: id.0,
                    source: Box::new(e),
                };
                match segs.get(i) {
                    Some(seg) => {
                        self.push(*id, seg).map_err(wrap)?;
                        pushed += 1;
                    }
                    None => {
                        // Exhausted while others continue: release its
                        // share instead of letting it gate the barrier.
                        if matches!(self.slots.get(id.0), Some(StreamSlot::Active(_))) {
                            self.close_stream(*id).map_err(wrap)?;
                        }
                    }
                }
            }
        }
        Ok(pushed)
    }

    /// Settle every stream — still-active and closed alike — into the joint
    /// outcome, in admission order.
    pub fn finish(self) -> MultiOutcome {
        let mut out = MultiOutcome::default();
        for slot in self.slots {
            let settled = match slot {
                StreamSlot::Active(a) => StreamOutcome {
                    workload_id: a.id,
                    outcome: a.session.finish(),
                },
                StreamSlot::Closed(s) => s,
            };
            out.cloud_usd += settled.outcome.cloud_usd;
            out.joint_quality += settled.outcome.mean_quality;
            out.streams.push(settled);
        }
        out
    }

    /// Cross the epoch barrier: re-run the joint LP over all active
    /// streams' forecasts (plus the admission candidate, when present),
    /// install the plans, re-split cluster shares and wallet leases, and
    /// reset the epoch quotas. Nothing is mutated until the LP succeeds.
    fn barrier(&mut self, candidate: Option<Box<ActiveStream<'a>>>) -> Result<(), SkyError> {
        let candidate_slot = self.slots.len();
        let mut stream_slots: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, StreamSlot::Active(_)))
            .map(|(i, _)| i)
            .collect();
        let mut models: Vec<&'a FittedModel> = self.active().map(|s| s.session.model()).collect();
        let mut rs: Vec<Vec<f64>> = self
            .active()
            .map(|s| s.session.forecast_distribution())
            .collect::<Result<_, _>>()?;
        if let Some(c) = &candidate {
            stream_slots.push(candidate_slot);
            models.push(c.session.model());
            rs.push(c.session.forecast_distribution()?);
        }
        let total = self.total_cores.expect("set at first admission");
        let (plans, math) = plan_epoch(
            &models,
            &rs,
            total,
            self.shared_budget_usd,
            &self.cost_model,
            self.replan_interval,
        )?;

        // Commit: admission, plans, shares, leases, quotas.
        if let Some(c) = candidate {
            self.slots.push(StreamSlot::Active(c));
        }
        let mut plans = plans.into_iter();
        for slot in &mut self.slots {
            if let StreamSlot::Active(a) = slot {
                let seg_len = a.session.model().seg_len;
                a.session
                    .install_plan(plans.next().expect("one plan per active stream"));
                a.session.set_capacity_per_seg(math.fair * seg_len);
                a.session.set_cloud_credits(math.lease);
                a.used = 0;
                a.quota = epoch_quota(math.interval, seg_len);
            }
        }
        // Merge the epoch's pending dedup entries in stable slot order: the
        // cache contents after a barrier are a pure function of the slot
        // layout and the segments pushed, never of shard count or thread
        // timing — the invariant that keeps the sharded runtime bitwise
        // identical to this sequential server.
        if let Some(cache) = self.dedup.as_mut() {
            cache.begin_epoch();
            for slot in &mut self.slots {
                if let StreamSlot::Active(a) = slot {
                    cache.publish(a.session.take_dedup_pending());
                }
            }
            cache.enforce_capacity();
        }
        self.joint_plans += 1;
        self.last_joint_plan = Some(JointPlanRecord {
            streams: stream_slots,
            budget_per_seg_total: math.budget,
            fair_cores: math.fair,
            lease_usd: math.lease,
        });
        Ok(())
    }
}

/// Ingest several pre-materialized streams that share cloud credits; each
/// stream keeps its own buffer and a fair share `⌊cores / V⌋` of the
/// cluster (Appendix D). Drives a [`MultiStreamServer`] round-robin.
pub fn run_multistream(
    models: &[&FittedModel],
    workloads: &[&dyn Workload],
    streams: &[Vec<Segment>],
    shared_cloud_budget_usd: f64,
    cost_model: &CostModel,
    seed: u64,
) -> Result<MultiOutcome, SkyError> {
    if models.is_empty() {
        return Err(SkyError::NoStreams);
    }
    if workloads.len() != models.len() {
        return Err(SkyError::StreamCountMismatch {
            what: "workload",
            expected: models.len(),
            got: workloads.len(),
        });
    }
    if streams.len() != models.len() {
        return Err(SkyError::StreamCountMismatch {
            what: "segment stream",
            expected: models.len(),
            got: streams.len(),
        });
    }
    let mut server = MultiStreamServer::new(shared_cloud_budget_usd, *cost_model, seed);
    let mut handles: Vec<(StreamId, &[Segment])> = Vec::with_capacity(models.len());
    for (v, (model, workload)) in models.iter().zip(workloads).enumerate() {
        let id = server.open_stream(
            format!("stream-{v}"),
            model,
            *workload,
            IngestOptions::default(),
        )?;
        handles.push((id, streams[v].as_slice()));
    }
    server.push_round_robin(&handles)?;
    Ok(server.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkyscraperConfig;
    use crate::offline::run_offline;
    use crate::testkit::ToyWorkload;
    use vetl_sim::HardwareSpec;
    use vetl_video::{ContentParams, Recording, SyntheticCamera};

    fn fit(seed: u64, cores: usize) -> (ToyWorkload, FittedModel, Vec<Segment>) {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(seed), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let (model, _) = run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(cores),
            &SkyscraperConfig::fast_test(),
        )
        .unwrap();
        let online = Recording::record(&mut cam, 2.0 * 3_600.0);
        (w, model, online.segments().to_vec())
    }

    #[test]
    fn joint_plan_normalizes_every_stream_category() {
        let (_, m1, _) = fit(3, 4);
        let (_, m2, _) = fit(4, 4);
        let models = vec![&m1, &m2];
        let rs: Vec<Vec<f64>> = models
            .iter()
            .map(|m| vec![1.0 / m.n_categories() as f64; m.n_categories()])
            .collect();
        let plans = joint_plan(&models, &rs, 4.0).unwrap();
        assert_eq!(plans.len(), 2);
        for (p, m) in plans.iter().zip(&models) {
            for c in 0..m.n_categories() {
                assert!((p.histogram(c).iter().sum::<f64>() - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn shared_budget_is_respected_in_expectation() {
        let (_, m1, _) = fit(3, 4);
        let (_, m2, _) = fit(4, 4);
        let models = vec![&m1, &m2];
        let rs: Vec<Vec<f64>> = models
            .iter()
            .map(|m| vec![1.0 / m.n_categories() as f64; m.n_categories()])
            .collect();
        let budget = 3.0;
        let plans = joint_plan(&models, &rs, budget).unwrap();
        let total_cost: f64 = plans
            .iter()
            .zip(&models)
            .zip(&rs)
            .map(|((p, m), r)| p.expected_cost(r, |k| m.configs[k].work_mean))
            .sum();
        assert!(
            total_cost <= budget + 1e-6,
            "joint cost {total_cost} > {budget}"
        );
    }

    #[test]
    fn joint_plan_rejects_bad_admissions_with_typed_errors() {
        let (_, m1, _) = fit(3, 4);
        assert_eq!(joint_plan(&[], &[], 1.0).unwrap_err(), SkyError::NoStreams);
        assert_eq!(
            joint_plan(&[&m1], &[], 1.0).unwrap_err(),
            SkyError::StreamCountMismatch {
                what: "forecast",
                expected: 1,
                got: 0,
            }
        );
        let wrong = vec![vec![0.5; m1.n_categories() + 1]];
        assert_eq!(
            joint_plan(&[&m1], &wrong, 1.0).unwrap_err(),
            SkyError::ForecastShape {
                stream: 0,
                expected: m1.n_categories(),
                got: m1.n_categories() + 1,
            }
        );
        let even = vec![1.0 / m1.n_categories() as f64; m1.n_categories()];
        for bad in [f64::NAN, f64::NEG_INFINITY, -1e-3] {
            let mut r = even.clone();
            r[m1.n_categories() - 1] = bad;
            assert!(
                matches!(
                    joint_plan(&[&m1], &[r], 1.0),
                    Err(SkyError::InvalidInput { .. })
                ),
                "forecast entry {bad} must be rejected typed"
            );
        }
        assert!(matches!(
            joint_plan(&[&m1], &[even], f64::NAN),
            Err(SkyError::InvalidInput { .. })
        ));
    }

    #[test]
    fn multistream_run_keeps_guarantees() {
        let (w1, m1, s1) = fit(3, 8);
        let (w2, m2, s2) = fit(4, 8);
        let out = run_multistream(
            &[&m1, &m2],
            &[&w1 as &dyn Workload, &w2],
            &[s1, s2],
            0.5,
            &CostModel::default(),
            7,
        )
        .unwrap();
        assert_eq!(out.streams.len(), 2);
        for s in &out.streams {
            assert_eq!(s.outcome.overflows, 0, "per-stream throughput guarantee");
            assert!(s.outcome.mean_quality > 0.3);
        }
        // The 2-hour run stays within one fast-test planned interval (4 h),
        // so the wallet never refills mid-stream: total spend is bounded by
        // one shared budget.
        assert!(out.cloud_usd <= 0.5 + 1e-9);
        assert!(out.joint_quality > 0.0);
    }

    #[test]
    fn admission_control_rejects_streams_beyond_the_cluster() {
        let (w1, m1, _) = fit(3, 4);
        let (w2, m2, _) = fit(4, 4);
        let mut server = MultiStreamServer::new(0.1, CostModel::default(), 7).with_total_cores(1.0);
        server
            .open_stream("a", &m1, &w1, IngestOptions::default())
            .expect("one stream fits one core");
        // A second stream would shrink the fair share to ⌊1/2⌋ = 0 cores.
        let err = server
            .open_stream("b", &m2, &w2, IngestOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, SkyError::UnderProvisioned { .. }),
            "expected UnderProvisioned, got {err:?}"
        );
        assert_eq!(server.n_streams(), 1);
    }

    #[test]
    fn run_multistream_validates_input_shapes() {
        let (w1, m1, s1) = fit(3, 4);
        assert_eq!(
            run_multistream(&[], &[], &[], 0.1, &CostModel::default(), 7).unwrap_err(),
            SkyError::NoStreams
        );
        assert_eq!(
            run_multistream(&[&m1], &[], &[s1], 0.1, &CostModel::default(), 7).unwrap_err(),
            SkyError::StreamCountMismatch {
                what: "workload",
                expected: 1,
                got: 0,
            }
        );
        assert_eq!(
            run_multistream(
                &[&m1],
                &[&w1 as &dyn Workload],
                &[],
                0.1,
                &CostModel::default(),
                7
            )
            .unwrap_err(),
            SkyError::StreamCountMismatch {
                what: "segment stream",
                expected: 1,
                got: 0,
            }
        );
    }

    #[test]
    fn server_push_rejects_unknown_stream_ids() {
        let (w1, m1, s1) = fit(3, 4);
        let mut server = MultiStreamServer::new(0.1, CostModel::default(), 7);
        let _id = server
            .open_stream("a", &m1, &w1, IngestOptions::default())
            .unwrap();
        let bogus = StreamId(5);
        assert_eq!(
            server.push(bogus, &s1[0]).unwrap_err(),
            SkyError::UnknownStream { id: 5 }
        );
    }
}
