//! Multi-stream ingestion (Appendix D): the shared planning pieces.
//!
//! Skyscraper's techniques extend naturally to many streams. The offline
//! phase runs independently per stream; online, only the knob planner
//! changes: a single **joint LP** allocates the shared budget across all
//! streams' categories (Eqs. 7–9, the green-highlighted generalization of
//! Eqs. 2–4). Knob switching stays per-stream and independent, except that
//! cloud credits are drawn from a shared wallet.
//!
//! The engine serving that generalization is
//! [`crate::runtime::IngestRuntime`] (its module docs give the epoch and
//! wallet-lease semantics). This module holds what it admits and plans
//! with — [`joint_plan`], the admission check, the Eq. 8 splits of an epoch
//! barrier, the epoch quota, segment validation — plus the stream handle
//! and outcome types. The runtime's test reference
//! (`testkit::reference`) calls the same functions, so the two admit, plan
//! and split identically by construction.

use vetl_lp::LpBasis;
use vetl_sim::CostModel;
use vetl_video::Segment;

use crate::error::SkyError;
use crate::offline::FittedModel;
use crate::online::plan::KnobPlan;
use crate::online::planner::walk_plans;
use crate::online::session::IngestOutcome;

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

/// Handle of an admitted stream (its admission-order slot index).
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
    /// typed (`UnknownStream`) by every runtime operation.
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

/// Seed stride separating per-stream RNGs (golden-ratio increment); slot
/// `v` runs on `seed + v · stride`.
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

/// Derived quantities of one epoch barrier.
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

/// Compute the barrier splits for a non-empty set of active models.
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
    // generalized to Eq. 8). Admission keeps one segment length per fleet,
    // so a round is one segment of any stream.
    let onprem: f64 = models.iter().map(|m| fair * m.seg_len).sum();
    let rounds = (interval / models[0].seg_len).max(1.0);
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
/// it is rejected typed before touching any state.
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

/// Admission check: the candidate must share the active streams' segment
/// length — the Eq. 8 budget is per segment *round*, a unit only one
/// length defines — or it is rejected with terminal
/// [`SkyError::InvalidInput`]; and every already-active stream *and* the
/// candidate must still run their cheapest configuration in real time on
/// the post-admission fair share `⌊total / (V + 1)⌋`, or it is rejected
/// with [`SkyError::UnderProvisioned`].
pub(crate) fn admission_check(
    active_models: &[&FittedModel],
    candidate: &FittedModel,
    total_cores: f64,
) -> Result<(), SkyError> {
    if active_models.iter().any(|m| m.seg_len != candidate.seg_len) {
        return Err(SkyError::InvalidInput {
            what: "stream segment length differs from the active streams'",
        });
    }
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

/// Barrier computation: Eq. 8 splits plus the joint LP itself. Nothing is
/// mutated by this call, so callers can validate an admission before
/// committing anything.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkyscraperConfig;
    use crate::offline::run_offline;
    use crate::testkit::ToyWorkload;
    use vetl_sim::HardwareSpec;
    use vetl_video::{ContentParams, Recording, SyntheticCamera};

    fn fit(seed: u64, cores: usize) -> FittedModel {
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
        model
    }

    #[test]
    fn joint_plan_normalizes_every_stream_category() {
        let m1 = fit(3, 4);
        let m2 = fit(4, 4);
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
        let m1 = fit(3, 4);
        let m2 = fit(4, 4);
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
        let m1 = fit(3, 4);
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
}
