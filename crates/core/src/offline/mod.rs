//! The offline preparation phase (§3): one fit that produces the
//! [`FittedModel`] the online phase reads.
//!
//! Skyscraper fits on historical data recorded from the source that will be
//! ingested online:
//!
//! 1. **Filter knob configurations** — diverse sampling + greedy hill
//!    climbing to an approximate work/quality Pareto set (Appendix A.1).
//! 2. **Filter task placements** — exhaustive search over the Appendix-M
//!    simulator, filtered to the cost/runtime Pareto frontier (Appendix A.2).
//! 3. **Categorize video dynamics** — KMeans over quality vectors (§3.2).
//! 4. **Train the forecasting model** — label the unlabeled data with a
//!    cheap discriminating configuration, build sliding-window histograms,
//!    train the Appendix-K network (§3.3, Appendix H).
//!
//! [`run_offline`] runs these steps in one call (the `pipeline` module holds
//! them). The model persists to a [`KnowledgeBase`] and reloads bitwise
//! identically; a [`FitStamp`] — one fingerprint of everything the fit read —
//! tells a refit whether a kept model is still current.
//!
//! [`OfflineReport`] records per-step wall-clock runtimes — the data behind
//! Table 3 — plus fit statistics.

pub mod codec;
pub mod forecast;
pub mod hillclimb;
pub mod kb;
pub mod pipeline;
pub mod sampling;
mod seeding;

use vetl_sim::HardwareSpec;
use vetl_video::{ContentState, Recording};

use crate::category::{ClusteringAlgo, ContentCategories};
use crate::config::SkyscraperConfig;
use crate::error::SkyError;
use crate::fingerprint::Fnv;
use crate::profile::ConfigProfile;
use crate::workload::Workload;
use forecast::{CategoryTimeline, Forecaster};

pub use forecast::ForecastDataset;
pub use kb::KnowledgeBase;
use pipeline::OfflinePipeline;
pub use pipeline::{recording_fingerprint, FitStamp};

/// Everything the online phase needs, produced by [`run_offline`] (or
/// reloaded from a [`KnowledgeBase`]).
#[derive(Debug, Clone)]
pub struct FittedModel {
    /// Workload name.
    pub workload_name: String,
    /// Segment length in seconds.
    pub seg_len: f64,
    /// Profiles of the filtered configurations (stable order; LP and
    /// switcher index into this).
    pub configs: Vec<ConfigProfile>,
    /// Config indices sorted by mean quality, *descending* — the switcher's
    /// "next less qualitative" fallback order (§4.2).
    pub quality_rank: Vec<usize>,
    /// Config indices sorted by mean work, ascending.
    pub cost_rank: Vec<usize>,
    /// Content categories.
    pub categories: ContentCategories,
    /// The trained forecaster.
    pub forecaster: Forecaster,
    /// Index (into `configs`) of the discriminating configuration used for
    /// offline labelling.
    pub discriminator: usize,
    /// Category timeline over the tail of the offline data — bootstraps the
    /// first online forecast.
    pub tail: CategoryTimeline,
    /// Hyperparameters used.
    pub hyper: SkyscraperConfig,
    /// Hardware the placements were profiled on.
    pub hardware: HardwareSpec,
    /// 99th percentile of the in-distribution classification residual
    /// measured while labelling the unlabeled recording — the calibration
    /// reference for the Appendix-E.2 drift detector.
    pub residual_p99: f64,
}

impl FittedModel {
    /// Number of surviving configurations `|K|`.
    pub fn n_configs(&self) -> usize {
        self.configs.len()
    }

    /// Number of content categories `|C|`.
    pub fn n_categories(&self) -> usize {
        self.categories.len()
    }

    /// Index of the cheapest configuration.
    pub fn cheapest(&self) -> usize {
        self.cost_rank[0]
    }

    /// Expected work of configuration `k` on content of category `c`,
    /// core-seconds per segment (falls back to the global mean when the
    /// categorization did not populate conditional costs).
    pub fn cost(&self, k: usize, c: usize) -> f64 {
        self.configs[k]
            .cost_by_category
            .get(c)
            .copied()
            .unwrap_or(self.configs[k].work_mean)
    }

    /// Ground-truth category of a content state: classify the *noiseless*
    /// quality vector over all configurations. Only evaluation code uses
    /// this (§5.6 microbenchmarks).
    pub fn ground_truth_category<W: Workload + ?Sized>(
        &self,
        workload: &W,
        content: &ContentState,
    ) -> usize {
        self.ground_truth_category_with(workload, content, &mut Vec::new())
    }

    /// [`Self::ground_truth_category`] with a caller-owned scratch buffer
    /// for the quality vector. The ingest hot path evaluates the ground
    /// truth once per segment; reusing the buffer keeps that evaluation off
    /// the allocator without changing a bit of the result.
    pub fn ground_truth_category_with<W: Workload + ?Sized>(
        &self,
        workload: &W,
        content: &ContentState,
        scratch: &mut Vec<f64>,
    ) -> usize {
        scratch.clear();
        scratch.extend(
            self.configs
                .iter()
                .map(|p| workload.true_quality(&p.config, content)),
        );
        self.categories.classify_full(scratch)
    }

    /// Bit-exact fingerprint over every behavior-bearing field of the
    /// model — two models fingerprint equally iff every field that can
    /// influence the online phase is bitwise identical. The single
    /// exclusion is `hyper.n_workers`: fits are bit-identical for every
    /// worker count, so a 1-worker and an N-worker fit of the same data
    /// must fingerprint equally. Backs the knowledge-base round-trip and
    /// refit equivalence tests.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat_str(&self.workload_name).eat_f64(self.seg_len);
        h.eat(self.configs.len() as u64);
        for p in &self.configs {
            h.eat_usizes(p.config.indices())
                .eat_f64(p.work_mean)
                .eat_f64(p.work_max)
                .eat_f64s(&p.qual_by_category)
                .eat_f64s(&p.cost_by_category)
                .eat(p.placements.len() as u64);
            for pl in &p.placements {
                for node in 0..pl.placement.len() {
                    h.eat(pl.placement.is_cloud(vetl_sim::NodeId(node)) as u64);
                }
                h.eat_f64(pl.runtime_mean)
                    .eat_f64(pl.runtime_max)
                    .eat_f64(pl.cloud_usd)
                    .eat_f64(pl.onprem_work)
                    .eat_f64(pl.onprem_work_max);
            }
        }
        h.eat_usizes(&self.quality_rank).eat_usizes(&self.cost_rank);
        h.eat(self.categories.len() as u64);
        for c in 0..self.categories.len() {
            h.eat_f64s(self.categories.center(c));
        }
        let spec = self.forecaster.spec();
        h.eat_f64(spec.input_secs)
            .eat(spec.input_splits as u64)
            .eat_f64(spec.horizon_secs)
            .eat_f64(spec.sample_every_secs)
            .eat(self.forecaster.n_categories() as u64)
            .eat_f64(self.forecaster.val_mae);
        for layer in self.forecaster.net().layers() {
            h.eat(layer.weights.rows() as u64)
                .eat(layer.weights.cols() as u64)
                .eat_f64s(layer.weights.as_slice())
                .eat_f64s(&layer.bias)
                .eat(layer.activation as u64);
        }
        h.eat(self.discriminator as u64)
            .eat_usizes(&self.tail.categories)
            .eat_f64(self.tail.seg_len)
            .eat(self.tail.n_categories as u64)
            .eat_f64(self.residual_p99)
            .eat(self.hyper.seed)
            .eat(self.hyper.n_categories as u64)
            .eat_f64(self.hyper.switch_period_secs)
            .eat_f64(self.hyper.planned_interval_secs)
            .eat_f64(self.hyper.forecast_input_secs)
            .eat(self.hyper.forecast_input_splits as u64)
            .eat_f64(self.hyper.forecast_sample_every_secs)
            .eat(self.hyper.forecast_epochs as u64)
            .eat_f64(self.hyper.forecast_val_fraction)
            .eat(self.hyper.n_presample as u64)
            .eat(self.hyper.n_search as u64)
            .eat_f64(self.hyper.categorize_fraction)
            .eat_f64(self.hyper.runtime_safety)
            .eat(self.hardware.cluster.cores as u64)
            .eat_f64(self.hardware.cluster.core_speed)
            .eat_f64(self.hardware.buffer_bytes)
            .eat_f64(self.hardware.cloud.rtt_secs)
            .eat_f64(self.hardware.cloud.uplink_bytes_per_sec)
            .eat_f64(self.hardware.cloud.downlink_bytes_per_sec)
            .eat_f64(self.hardware.cloud.usd_per_compute_sec)
            .eat_f64(self.hardware.cloud.usd_per_invocation);
        h.finish()
    }
}

/// Wall-clock runtimes of the offline steps (Table 3) plus fit statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OfflineReport {
    /// "Filter knob configurations" runtime, seconds.
    pub filter_configs_secs: f64,
    /// "Filter task placements" (profiling) runtime, seconds.
    pub filter_placements_secs: f64,
    /// "Compute content categories" runtime, seconds.
    pub categorize_secs: f64,
    /// "Create forecast training data" (labelling) runtime, seconds.
    pub forecast_data_secs: f64,
    /// "Train forecast model" runtime, seconds.
    pub train_secs: f64,
    /// Surviving configurations.
    pub n_configs: usize,
    /// Total Pareto placements across configurations.
    pub n_placements: usize,
    /// Categories.
    pub n_categories: usize,
    /// Forecaster validation MAE.
    pub forecast_mae: f64,
    /// Forecaster training samples generated.
    pub n_train_samples: usize,
    /// Worker threads the offline scatter-gather steps fanned out over.
    pub n_workers: usize,
    /// True when a refit found its inputs unchanged and kept the previous
    /// fit (the timings and statistics above are that fit's); false when
    /// the steps ran.
    pub reused: bool,
}

impl OfflineReport {
    /// Total offline runtime in seconds.
    pub fn total_secs(&self) -> f64 {
        self.filter_configs_secs
            + self.filter_placements_secs
            + self.categorize_secs
            + self.forecast_data_secs
            + self.train_secs
    }
}

/// Run the full offline phase.
///
/// `labeled` is the small ground-truth set (~20 min in the paper), `unlabeled`
/// the large recording (~2 weeks). Returns the fitted model plus the step
/// report, or an error when the data is insufficient or the hardware cannot
/// sustain even the cheapest configuration.
pub fn run_offline<W: Workload + ?Sized>(
    workload: &W,
    labeled: &Recording,
    unlabeled: &Recording,
    hardware: HardwareSpec,
    hyper: &SkyscraperConfig,
) -> Result<(FittedModel, OfflineReport), SkyError> {
    run_offline_with(
        workload,
        labeled,
        unlabeled,
        hardware,
        hyper,
        ClusteringAlgo::KMeans,
    )
}

/// [`run_offline`] with an explicit clustering algorithm (Fig. 17 ablation).
pub fn run_offline_with<W: Workload + ?Sized>(
    workload: &W,
    labeled: &Recording,
    unlabeled: &Recording,
    hardware: HardwareSpec,
    hyper: &SkyscraperConfig,
    clustering: ClusteringAlgo,
) -> Result<(FittedModel, OfflineReport), SkyError> {
    OfflinePipeline::new(workload, hardware, hyper.clone(), clustering).run(labeled, unlabeled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ToyWorkload;
    use vetl_video::{ContentParams, SyntheticCamera};

    fn fit() -> (FittedModel, OfflineReport) {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(4),
            &SkyscraperConfig::fast_test(),
        )
        .expect("offline phase fits")
    }

    #[test]
    fn offline_phase_produces_consistent_model() {
        let (model, report) = fit();
        assert!(model.n_configs() >= 2, "need a non-trivial Pareto set");
        assert_eq!(model.n_categories(), 3);
        assert_eq!(model.quality_rank.len(), model.n_configs());
        assert_eq!(model.cost_rank.len(), model.n_configs());
        // Every profile has per-category qualities and ≥ 1 placement.
        for p in &model.configs {
            assert_eq!(p.qual_by_category.len(), 3);
            assert!(!p.placements.is_empty());
        }
        // Ranks are permutations.
        let mut qr = model.quality_rank.clone();
        qr.sort_unstable();
        assert_eq!(qr, (0..model.n_configs()).collect::<Vec<_>>());
        // Report carries timings and stats.
        assert!(report.total_secs() > 0.0);
        assert_eq!(report.n_configs, model.n_configs());
        assert!(report.forecast_mae.is_finite());
        assert!(report.n_train_samples > 10);
        // A cold fit reuses nothing.
        assert!(!report.reused);
    }

    #[test]
    fn quality_rank_is_descending_and_cost_rank_ascending() {
        let (model, _) = fit();
        let avg_q = |k: usize| {
            model.configs[k].qual_by_category.iter().sum::<f64>() / model.n_categories() as f64
        };
        for w in model.quality_rank.windows(2) {
            assert!(avg_q(w[0]) >= avg_q(w[1]) - 1e-12);
        }
        for w in model.cost_rank.windows(2) {
            assert!(model.configs[w[0]].work_mean <= model.configs[w[1]].work_mean + 1e-12);
        }
    }

    #[test]
    fn categories_discriminate_difficulty() {
        let (model, _) = fit();
        let w = ToyWorkload::new();
        let mut proc = vetl_video::ContentProcess::new(ContentParams::traffic_intersection(9), 2.0);
        let mut easy = proc.step();
        easy.difficulty = 0.05;
        let mut hard = proc.step();
        hard.difficulty = 0.95;
        let ce = model.ground_truth_category(&w, &easy);
        let ch = model.ground_truth_category(&w, &hard);
        assert_ne!(
            ce, ch,
            "easy and hard content must land in different categories"
        );
    }

    /// Field-by-field equality of two fitted models, asserting with context.
    pub(crate) fn assert_models_identical(a: &FittedModel, b: &FittedModel) {
        assert_eq!(a.n_configs(), b.n_configs(), "config count");
        for (i, (pa, pb)) in a.configs.iter().zip(b.configs.iter()).enumerate() {
            assert_eq!(pa.config, pb.config, "config {i}");
            assert_eq!(pa.work_mean, pb.work_mean, "work_mean {i}");
            assert_eq!(pa.work_max, pb.work_max, "work_max {i}");
            assert_eq!(
                pa.qual_by_category, pb.qual_by_category,
                "qual_by_category {i}"
            );
            assert_eq!(
                pa.cost_by_category, pb.cost_by_category,
                "cost_by_category {i}"
            );
            assert_eq!(
                pa.placements.len(),
                pb.placements.len(),
                "placement count {i}"
            );
            for (j, (la, lb)) in pa.placements.iter().zip(pb.placements.iter()).enumerate() {
                assert_eq!(la.placement, lb.placement, "placement {i}.{j}");
                assert_eq!(la.runtime_mean, lb.runtime_mean, "runtime_mean {i}.{j}");
                assert_eq!(la.runtime_max, lb.runtime_max, "runtime_max {i}.{j}");
                assert_eq!(la.cloud_usd, lb.cloud_usd, "cloud_usd {i}.{j}");
                assert_eq!(la.onprem_work, lb.onprem_work, "onprem_work {i}.{j}");
            }
        }
        assert_eq!(a.quality_rank, b.quality_rank, "quality rank");
        assert_eq!(a.cost_rank, b.cost_rank, "cost rank");
        assert_eq!(a.discriminator, b.discriminator, "discriminator");
        assert_eq!(a.n_categories(), b.n_categories(), "category count");
        for c in 0..a.n_categories() {
            assert_eq!(a.categories.center(c), b.categories.center(c), "center {c}");
        }
        assert_eq!(a.residual_p99, b.residual_p99, "residual_p99");
        assert_eq!(a.tail.categories, b.tail.categories, "bootstrap tail");
        assert_eq!(
            a.forecaster.val_mae, b.forecaster.val_mae,
            "forecaster val MAE"
        );
        assert_eq!(a.fingerprint(), b.fingerprint(), "model fingerprint");
    }

    #[test]
    fn parallel_offline_run_matches_single_worker_bitwise() {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 86_400.0);
        let fit_with_workers = |n: usize| {
            let hyper = SkyscraperConfig {
                n_workers: n,
                ..SkyscraperConfig::fast_test()
            };
            run_offline(
                &w,
                &labeled,
                &unlabeled,
                HardwareSpec::with_cores(4),
                &hyper,
            )
            .expect("offline phase fits")
        };
        let (serial, serial_report) = fit_with_workers(1);
        let (parallel, parallel_report) = fit_with_workers(4);
        assert_eq!(serial_report.n_workers, 1);
        assert_eq!(parallel_report.n_workers, 4);
        assert_models_identical(&serial, &parallel);
    }

    #[test]
    fn under_provisioning_is_detected() {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 86_400.0);
        // A "cluster" slower than the cheapest config's work rate.
        let hw = HardwareSpec {
            cluster: vetl_sim::ClusterSpec {
                cores: 1,
                core_speed: 0.02,
            },
            ..HardwareSpec::with_cores(1)
        };
        let err =
            run_offline(&w, &labeled, &unlabeled, hw, &SkyscraperConfig::fast_test()).unwrap_err();
        assert!(matches!(err, SkyError::UnderProvisioned { .. }));
    }

    #[test]
    fn empty_recordings_are_rejected() {
        let w = ToyWorkload::new();
        let empty = Recording::default();
        let err = run_offline(
            &w,
            &empty,
            &empty,
            HardwareSpec::with_cores(4),
            &SkyscraperConfig::fast_test(),
        )
        .unwrap_err();
        assert!(matches!(err, SkyError::InsufficientData { .. }));
    }
}
