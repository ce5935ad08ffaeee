//! The single-threaded reference the runtime is differentially tested
//! against.
//!
//! [`Reference`] is the Appendix-D multi-stream semantics and nothing else:
//! no shards, mailboxes, journal, observability or options of its own. A
//! push is processed on arrival. Each stream may process its epoch quota of
//! segments; the first push beyond it crosses the epoch barrier, which only
//! fires once every active stream has used its quota. Admission, the joint
//! plan and its Eq. 8 splits, the quota, segment validation and per-stream
//! seeds come from the functions [`crate::runtime::IngestRuntime`] calls;
//! everything the runtime adds — sharding, bounded mailboxes, lazy
//! dispatch, durability — must be bitwise invisible against it
//! (`tests/runtime.rs`, `tests/dedup.rs`).

use vetl_sim::CostModel;
use vetl_video::Segment;

use crate::dedupe::DedupCache;
use crate::error::SkyError;
use crate::multistream::{
    admission_check, epoch_quota, plan_epoch, validate_segment, MultiOutcome, StreamId,
    StreamOutcome, STREAM_SEED_STRIDE,
};
use crate::offline::FittedModel;
use crate::online::session::{IngestOptions, IngestOutcome, IngestSession};
use crate::runtime::RuntimeConfig;
use crate::workload::Workload;

/// One admitted stream.
struct Stream<'a> {
    id: String,
    /// `None` once closed.
    session: Option<IngestSession<'a, dyn Workload + 'a>>,
    /// The settled outcome of a closed stream.
    closed: Option<IngestOutcome>,
    /// Segments processed in the current planning epoch.
    used: usize,
    /// Segment quota per epoch.
    quota: usize,
}

/// The runtime's reference semantics; see the [module docs](self).
pub struct Reference<'a> {
    streams: Vec<Stream<'a>>,
    budget_usd: f64,
    cost_model: CostModel,
    seed: u64,
    interval: Option<f64>,
    total_cores: Option<f64>,
    dedup: Option<DedupCache>,
}

impl<'a> Reference<'a> {
    /// The reference for a runtime built from `cfg`. Only the planning
    /// fields are read: budget, cost model, seed, replanning interval,
    /// cluster size and dedup policy.
    pub fn new(cfg: &RuntimeConfig) -> Self {
        Self {
            streams: Vec::new(),
            budget_usd: cfg.shared_cloud_budget_usd,
            cost_model: cfg.cost_model,
            seed: cfg.seed,
            interval: cfg.replan_interval_secs,
            total_cores: cfg.total_cores,
            dedup: cfg.dedup.map(DedupCache::new),
        }
    }

    /// Admit a stream and cross a barrier that plans it with every active
    /// stream. A rejected admission changes nothing.
    pub fn open(
        &mut self,
        id: impl Into<String>,
        model: &'a FittedModel,
        workload: &'a (dyn Workload + 'a),
        mut options: IngestOptions,
    ) -> Result<StreamId, SkyError> {
        let total = self
            .total_cores
            .unwrap_or_else(|| model.hardware.cluster.throughput());
        let active: Vec<&FittedModel> = self.sessions().map(|s| s.model()).collect();
        admission_check(&active, model, total)?;
        let slot = self.streams.len();
        options.seed = self
            .seed
            .wrapping_add((slot as u64).wrapping_mul(STREAM_SEED_STRIDE));
        options.dedup = self.dedup.as_ref().map(|c| *c.policy());
        let candidate = Stream {
            id: id.into(),
            session: Some(IngestSession::external(model, workload, options)),
            closed: None,
            used: 0,
            quota: 1,
        };
        let prev_total = self.total_cores.replace(total);
        if let Err(e) = self.barrier(Some(candidate)) {
            self.total_cores = prev_total;
            return Err(e);
        }
        Ok(StreamId::from_index(slot))
    }

    /// Process one segment on arrival, first crossing the barrier when the
    /// stream has used its quota. Pushing past the barrier while another
    /// active stream still has quota is a bug in the calling test and
    /// panics, as does pushing to a stream that is closed or was never
    /// admitted.
    pub fn push(&mut self, id: StreamId, seg: &Segment) -> Result<(), SkyError> {
        validate_segment(seg)?;
        let s = &self.streams[id.index()];
        if s.used >= s.quota {
            assert!(
                self.streams
                    .iter()
                    .all(|s| s.session.is_none() || s.used >= s.quota),
                "stream {} pushed past the epoch barrier",
                id.index()
            );
            self.barrier(None)?;
        }
        let s = &mut self.streams[id.index()];
        let session = s.session.as_mut().expect("push to an open stream");
        session.push_with_cache(seg, self.dedup.as_ref())?;
        s.used += 1;
        Ok(())
    }

    /// Close a stream: it settles now and leaves the next joint plan.
    pub fn close(&mut self, id: StreamId) {
        let s = &mut self.streams[id.index()];
        let session = s.session.take().expect("close an open stream");
        s.closed = Some(session.finish());
    }

    /// Settle every stream into the joint outcome, in admission order.
    pub fn finish(self) -> MultiOutcome {
        let mut out = MultiOutcome::default();
        for s in self.streams {
            let outcome = match s.session {
                Some(session) => session.finish(),
                None => s.closed.expect("a closed stream keeps its outcome"),
            };
            out.cloud_usd += outcome.cloud_usd;
            out.joint_quality += outcome.mean_quality;
            out.streams.push(StreamOutcome {
                workload_id: s.id,
                outcome,
            });
        }
        out
    }

    fn sessions(&self) -> impl Iterator<Item = &IngestSession<'a, dyn Workload + 'a>> {
        self.streams.iter().filter_map(|s| s.session.as_ref())
    }

    /// Plan every active stream (plus the candidate) jointly; only once
    /// that succeeded, admit the candidate, install the plans, re-split
    /// shares and leases, reset the quotas and publish the epoch's dedup
    /// entries in slot order.
    fn barrier(&mut self, candidate: Option<Stream<'a>>) -> Result<(), SkyError> {
        let mut models: Vec<&'a FittedModel> = self.sessions().map(|s| s.model()).collect();
        let mut rs = self
            .sessions()
            .map(|s| s.forecast_distribution())
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(session) = candidate.as_ref().and_then(|c| c.session.as_ref()) {
            models.push(session.model());
            rs.push(session.forecast_distribution()?);
        }
        let total = self.total_cores.expect("set at first admission");
        let (plans, math) = plan_epoch(
            &models,
            &rs,
            total,
            self.budget_usd,
            &self.cost_model,
            self.interval,
        )?;
        self.streams.extend(candidate);
        let mut plans = plans.into_iter();
        for s in &mut self.streams {
            if let Some(session) = s.session.as_mut() {
                let seg_len = session.model().seg_len;
                session.install_plan(plans.next().expect("one plan per active stream"));
                session.set_capacity_per_seg(math.fair * seg_len);
                session.set_cloud_credits(math.lease);
                s.used = 0;
                s.quota = epoch_quota(math.interval, seg_len);
            }
        }
        if let Some(cache) = self.dedup.as_mut() {
            cache.begin_epoch();
            for s in &mut self.streams {
                if let Some(session) = s.session.as_mut() {
                    cache.publish(session.take_dedup_pending());
                }
            }
            cache.enforce_capacity();
        }
        Ok(())
    }
}
