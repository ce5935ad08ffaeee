//! The staged offline pipeline (§3) and its typed artifacts.
//!
//! PR 3 decomposes the former monolithic `run_offline` into four
//! independently runnable, persistable stages:
//!
//! ```text
//! ProfileArtifact ──▶ CategoryArtifact ──▶ ForecastArtifact ──▶ PlanArtifact
//!  (A.1 config         (§3.2 KMeans over     (App. H labelling,    (assembled
//!   filtering +         quality vectors,      §3.3 forecaster       FittedModel +
//!   A.2 placement       ranks, discrim-       training, drift       seeded first
//!   profiling)          inator choice)        calibration)          knob plan)
//! ```
//!
//! Every stage consumes the previous stage's artifact and validates its
//! [`ArtifactMeta`] — the fingerprints of the workload, hyperparameters,
//! hardware, input recordings, and the upstream artifact — returning
//! [`SkyError::StaleArtifact`] instead of silently mixing incompatible
//! state. Artifacts persist to disk through the
//! [`KnowledgeBase`](super::kb::KnowledgeBase) and reload bitwise
//! identically.
//!
//! **Refit** ([`OfflinePipeline::refit`]) reuses a previous fit only when
//! its inputs are unchanged: the same workload, hyperparameters, hardware
//! and seed, the same labeled and unlabeled recordings, and an intact
//! artifact chain. Every stage's provenance carries the unlabeled recording
//! and its upstream artifact, so either all four stages can be reused or
//! none can; anything else is a cold fit. Either way the model is bitwise
//! identical to a cold [`OfflinePipeline::run`] on the same data.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vetl_exec::ActorPool;
use vetl_sim::{CloudSpec, ClusterSpec, HardwareSpec};
use vetl_video::{ContentState, Recording};

use super::forecast::{CategoryTimeline, ForecastDataset, ForecastSpec, Forecaster};
use super::{hillclimb, sampling, seeding, FittedModel, OfflineReport};
use crate::category::{ClusteringAlgo, ContentCategories};
use crate::config::SkyscraperConfig;
use crate::error::SkyError;
use crate::fingerprint::{content_identity_bits, Fnv};
use crate::online::plan::KnobPlan;
use crate::online::planner::plan_knobs;
use crate::profile::{profile_configs_on, ConfigProfile};
use crate::workload::Workload;

/// Bit-exact fingerprint of a recording (every segment's index, duration,
/// content, and size).
pub fn recording_fingerprint(recording: &Recording) -> u64 {
    let mut h = Fnv::new();
    h.eat(recording.len() as u64);
    for s in recording.segments() {
        h.eat(s.index).eat_f64(s.duration);
        for bits in content_identity_bits(&s.content) {
            h.eat(bits);
        }
        h.eat_f64(s.bytes);
    }
    h.finish()
}

fn hyper_fingerprint(hyper: &SkyscraperConfig, clustering: ClusteringAlgo) -> u64 {
    let mut h = Fnv::new();
    h.eat(hyper.n_categories as u64)
        .eat_f64(hyper.switch_period_secs)
        .eat_f64(hyper.planned_interval_secs)
        .eat_f64(hyper.forecast_input_secs)
        .eat(hyper.forecast_input_splits as u64)
        .eat_f64(hyper.forecast_sample_every_secs)
        .eat(hyper.forecast_epochs as u64)
        .eat_f64(hyper.forecast_val_fraction)
        .eat(hyper.n_presample as u64)
        .eat(hyper.n_search as u64)
        .eat_f64(hyper.categorize_fraction)
        .eat_f64(hyper.runtime_safety)
        .eat(hyper.seed)
        // n_workers deliberately excluded: the fit is bit-identical for
        // every worker count, so it must not invalidate artifacts.
        .eat(match clustering {
            ClusteringAlgo::KMeans => 0,
            ClusteringAlgo::Gmm => 1,
        });
    h.finish()
}

fn hardware_fingerprint(hw: &HardwareSpec) -> u64 {
    let ClusterSpec { cores, core_speed } = hw.cluster;
    let CloudSpec {
        rtt_secs,
        uplink_bytes_per_sec,
        downlink_bytes_per_sec,
        usd_per_compute_sec,
        usd_per_invocation,
    } = hw.cloud;
    let mut h = Fnv::new();
    h.eat(cores as u64)
        .eat_f64(core_speed)
        .eat_f64(rtt_secs)
        .eat_f64(uplink_bytes_per_sec)
        .eat_f64(downlink_bytes_per_sec)
        .eat_f64(usd_per_compute_sec)
        .eat_f64(usd_per_invocation)
        .eat_f64(hw.buffer_bytes);
    h.finish()
}

/// Provenance of an artifact: which workload, hyperparameters, hardware and
/// data produced it, and which upstream artifact it consumed. Stages check
/// these before consuming an artifact; mismatches are [`SkyError::StaleArtifact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Workload display name (diagnostics only).
    pub workload: String,
    /// [`Workload::fingerprint`] of the producing workload.
    pub workload_fp: u64,
    /// Fingerprint of the offline-relevant hyperparameters (worker count
    /// excluded) and the clustering algorithm.
    pub hyper_fp: u64,
    /// Fingerprint of the hardware spec the placements were profiled on.
    pub hardware_fp: u64,
    /// Master RNG seed.
    pub seed: u64,
    /// Fingerprint of the labeled recording (0 when the stage does not
    /// consume it).
    pub labeled_fp: u64,
    /// Fingerprint of the unlabeled recording.
    pub unlabeled_fp: u64,
    /// Fingerprint of the consumed upstream artifact (0 for the first
    /// stage).
    pub upstream_fp: u64,
}

impl ArtifactMeta {
    fn digest(&self, h: &mut Fnv) {
        h.eat_str(&self.workload)
            .eat(self.workload_fp)
            .eat(self.hyper_fp)
            .eat(self.hardware_fp)
            .eat(self.seed)
            .eat(self.labeled_fp)
            .eat(self.unlabeled_fp)
            .eat(self.upstream_fp);
    }
}

/// Stage 1 output: the filtered knob configurations with their work and
/// placement profiles (Appendix A.1 + A.2). Category-conditional columns
/// are still empty — they belong to the category stage.
#[derive(Debug, Clone)]
pub struct ProfileArtifact {
    /// Provenance.
    pub meta: ArtifactMeta,
    /// Profiles of the surviving configurations, stable order.
    pub configs: Vec<ConfigProfile>,
    /// "Filter knob configurations" wall-clock seconds.
    pub filter_configs_secs: f64,
    /// "Filter task placements" wall-clock seconds.
    pub filter_placements_secs: f64,
}

impl ProfileArtifact {
    /// Content fingerprint (chains into the category stage's meta).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        self.meta.digest(&mut h);
        h.eat(self.configs.len() as u64);
        for p in &self.configs {
            h.eat_usizes(p.config.indices())
                .eat_f64(p.work_mean)
                .eat_f64(p.work_max)
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
        h.finish()
    }
}

/// Stage 2 output: content categories, the per-configuration
/// category-conditional quality/cost columns, ranking orders, and the
/// discriminating configuration (§3.2, footnote 7).
#[derive(Debug, Clone)]
pub struct CategoryArtifact {
    /// Provenance (upstream = profile artifact).
    pub meta: ArtifactMeta,
    /// Fitted category centers.
    pub categories: ContentCategories,
    /// `qual_by_category[k][c]` for every profiled configuration.
    pub qual_by_category: Vec<Vec<f64>>,
    /// `cost_by_category[k][c]` for every profiled configuration.
    pub cost_by_category: Vec<Vec<f64>>,
    /// Config indices sorted by mean quality, descending.
    pub quality_rank: Vec<usize>,
    /// Config indices sorted by mean work, ascending.
    pub cost_rank: Vec<usize>,
    /// Index of the discriminating configuration.
    pub discriminator: usize,
    /// "Compute content categories" wall-clock seconds.
    pub categorize_secs: f64,
}

impl CategoryArtifact {
    /// Content fingerprint (chains into the forecast stage's meta).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        self.meta.digest(&mut h);
        h.eat(self.categories.len() as u64);
        for c in 0..self.categories.len() {
            h.eat_f64s(self.categories.center(c));
        }
        h.eat(self.qual_by_category.len() as u64);
        for row in &self.qual_by_category {
            h.eat_f64s(row);
        }
        for row in &self.cost_by_category {
            h.eat_f64s(row);
        }
        h.eat_usizes(&self.quality_rank)
            .eat_usizes(&self.cost_rank)
            .eat(self.discriminator as u64);
        h.finish()
    }
}

/// Stage 3 output: the trained forecaster, the bootstrap tail, and the
/// drift-detector calibration (§3.3, Appendices H and K).
#[derive(Debug, Clone)]
pub struct ForecastArtifact {
    /// Provenance (upstream = category artifact).
    pub meta: ArtifactMeta,
    /// The trained forecasting model.
    pub forecaster: Forecaster,
    /// Most recent `t_in` of labelled categories — bootstraps the first
    /// online forecast.
    pub tail: CategoryTimeline,
    /// 99th-percentile in-distribution classification residual.
    pub residual_p99: f64,
    /// Training samples generated.
    pub n_train_samples: usize,
    /// "Create forecast training data" wall-clock seconds.
    pub forecast_data_secs: f64,
    /// "Train forecast model" wall-clock seconds.
    pub train_secs: f64,
}

impl ForecastArtifact {
    /// Content fingerprint (chains into the plan stage's meta).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        self.meta.digest(&mut h);
        let spec = self.forecaster.spec();
        h.eat_f64(spec.input_secs)
            .eat(spec.input_splits as u64)
            .eat_f64(spec.horizon_secs)
            .eat_f64(spec.sample_every_secs)
            .eat(self.forecaster.n_categories() as u64)
            .eat_f64(self.forecaster.val_mae);
        for layer in self.forecaster.net().layers() {
            h.eat_f64s(layer.weights.as_slice()).eat_f64s(&layer.bias);
        }
        h.eat_usizes(&self.tail.categories)
            .eat_f64(self.tail.seg_len)
            .eat(self.tail.n_categories as u64)
            .eat_f64(self.residual_p99)
            .eat(self.n_train_samples as u64);
        h.finish()
    }
}

/// Stage 4 output: the assembled [`FittedModel`] plus the seeded first knob
/// plan (what the first online planning interval would install, computed
/// from the bootstrap-tail forecast at zero cloud budget).
#[derive(Debug, Clone)]
pub struct PlanArtifact {
    /// Provenance (upstream = forecast artifact).
    pub meta: ArtifactMeta,
    /// Everything the online phase needs.
    pub model: FittedModel,
    /// The seeded initial knob plan.
    pub seed_plan: KnobPlan,
}

impl PlanArtifact {
    /// Content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        self.meta.digest(&mut h);
        h.eat(self.model.fingerprint());
        for c in 0..self.seed_plan.n_categories() {
            h.eat_f64s(self.seed_plan.histogram(c));
        }
        h.finish()
    }
}

/// The four staged artifacts of one complete offline fit.
#[derive(Debug, Clone)]
pub struct OfflineArtifacts {
    /// Stage 1: filtered configurations + placement profiles.
    pub profile: ProfileArtifact,
    /// Stage 2: content categories, ranks, discriminator.
    pub category: CategoryArtifact,
    /// Stage 3: forecaster, bootstrap tail, drift calibration.
    pub forecast: ForecastArtifact,
    /// Stage 4: assembled model + seeded plan.
    pub plan: PlanArtifact,
}

impl OfflineArtifacts {
    /// The assembled model.
    pub fn model(&self) -> &FittedModel {
        &self.plan.model
    }

    /// Consume the artifacts, keeping only the model.
    pub fn into_model(self) -> FittedModel {
        self.plan.model
    }
}

/// The staged offline preparation pipeline. See the module docs.
pub struct OfflinePipeline<'w, W: Workload + ?Sized> {
    workload: &'w W,
    hardware: HardwareSpec,
    hyper: SkyscraperConfig,
    clustering: ClusteringAlgo,
    pool: ActorPool,
}

impl<'w, W: Workload + ?Sized> OfflinePipeline<'w, W> {
    /// Build a pipeline for one workload/hardware/hyperparameter triple.
    pub fn new(workload: &'w W, hardware: HardwareSpec, hyper: SkyscraperConfig) -> Self {
        let pool = ActorPool::new(hyper.resolved_workers());
        Self {
            workload,
            hardware,
            hyper,
            clustering: ClusteringAlgo::KMeans,
            pool,
        }
    }

    /// Override the categorization clustering algorithm (Fig. 17 ablation).
    pub fn with_clustering(mut self, clustering: ClusteringAlgo) -> Self {
        self.clustering = clustering;
        self
    }

    fn meta(&self, labeled_fp: u64, unlabeled_fp: u64, upstream_fp: u64) -> ArtifactMeta {
        ArtifactMeta {
            workload: self.workload.name().to_string(),
            workload_fp: self.workload.fingerprint(),
            hyper_fp: hyper_fingerprint(&self.hyper, self.clustering),
            hardware_fp: hardware_fingerprint(&self.hardware),
            seed: self.hyper.seed,
            labeled_fp,
            unlabeled_fp,
            upstream_fp,
        }
    }

    /// Does `meta` match this pipeline's environment (workload, hypers,
    /// hardware, seed)?
    fn env_matches(&self, meta: &ArtifactMeta) -> bool {
        meta.workload_fp == self.workload.fingerprint()
            && meta.hyper_fp == hyper_fingerprint(&self.hyper, self.clustering)
            && meta.hardware_fp == hardware_fingerprint(&self.hardware)
            && meta.seed == self.hyper.seed
    }

    fn check_env(&self, meta: &ArtifactMeta, what: &'static str) -> Result<(), SkyError> {
        if self.env_matches(meta) {
            Ok(())
        } else {
            Err(SkyError::StaleArtifact { what })
        }
    }

    // ------------------------------------------------------------------
    // Stage 1: profile.
    // ------------------------------------------------------------------

    /// Filter knob configurations (Appendix A.1) and profile their
    /// placements on the provisioned hardware (Appendix A.2).
    pub fn profile(
        &self,
        labeled: &Recording,
        unlabeled: &Recording,
    ) -> Result<ProfileArtifact, SkyError> {
        if self.workload.config_space().size() == 0 {
            return Err(SkyError::EmptyConfigSpace);
        }
        if labeled.is_empty() {
            return Err(SkyError::InsufficientData {
                what: "labeled recording is empty",
            });
        }
        if unlabeled.is_empty() {
            return Err(SkyError::InsufficientData {
                what: "unlabeled recording is empty",
            });
        }

        // ------ Filter knob configurations (Appendix A.1). ------
        let t0 = Instant::now();
        let mut rng =
            StdRng::seed_from_u64(seeding::mix(self.hyper.seed, seeding::TAG_SAMPLING, 0));
        let (k_minus, k_plus) = sampling::anchor_configs(self.workload, labeled.segments())?;
        let diverse = sampling::diverse_sample(
            self.workload,
            unlabeled.segments(),
            &k_minus,
            &k_plus,
            self.hyper.n_presample,
            self.hyper.n_search,
            &mut rng,
        )?;
        let diverse_contents: Vec<ContentState> = diverse.iter().map(|s| s.content).collect();
        let mut configs = hillclimb::filter_configs(
            self.workload,
            &diverse_contents,
            &k_plus,
            self.hyper.seed,
            &self.pool,
        )?;
        if !configs.contains(&k_minus) {
            configs.insert(0, k_minus.clone());
        }
        let filter_configs_secs = t0.elapsed().as_secs_f64();

        // ------ Profile configurations + placements (Appendix A.2). ------
        // Means come from *representative* content (uniform stride over the
        // unlabeled recording) because the knob planner's LP consumes them;
        // maxes additionally cover the diverse samples plus constructed
        // worst-case content, so the switcher's overflow check is a true
        // upper bound (costs are monotone in activity/difficulty for CV
        // workloads).
        let t0 = Instant::now();
        let rep_stride = (unlabeled.len() / 48).max(1);
        let representative: Vec<ContentState> = unlabeled
            .segments()
            .iter()
            .step_by(rep_stride)
            .take(48)
            .map(|s| s.content)
            .collect();
        let mut extreme_contents = diverse_contents.clone();
        if let Some(base) = diverse_contents.first() {
            let mut extreme = *base;
            extreme.difficulty = 1.0;
            extreme.activity = 1.0;
            extreme_contents.push(extreme);
        }
        let profiles = profile_configs_on(
            self.workload,
            &configs,
            &representative,
            &extreme_contents,
            &self.hardware,
            &self.pool,
        );
        if profiles
            .iter()
            .any(|p| !p.work_mean.is_finite() || !p.work_max.is_finite())
        {
            return Err(SkyError::NonFinite {
                what: "profiled configuration work",
            });
        }
        let filter_placements_secs = t0.elapsed().as_secs_f64();

        // Throughput-guarantee precondition: the cheapest configuration must
        // run in real time on the cluster (otherwise no knob plan can keep
        // up).
        let cheapest_idx = argmin(&profiles, |p| p.work_mean)?;
        let cheapest_rate = profiles[cheapest_idx].work_mean / self.workload.segment_len();
        if cheapest_rate > self.hardware.cluster.throughput() {
            return Err(SkyError::UnderProvisioned {
                cheapest_work_rate: cheapest_rate,
                cluster_throughput: self.hardware.cluster.throughput(),
            });
        }

        Ok(ProfileArtifact {
            meta: self.meta(
                recording_fingerprint(labeled),
                recording_fingerprint(unlabeled),
                0,
            ),
            configs: profiles,
            filter_configs_secs,
            filter_placements_secs,
        })
    }

    // ------------------------------------------------------------------
    // Stage 2: categorize.
    // ------------------------------------------------------------------

    /// Categorize video dynamics (§3.2): KMeans over quality vectors of a
    /// sampled fraction of the unlabeled recording, category-conditional
    /// quality/cost columns, ranking orders, and the discriminator choice.
    pub fn categorize(
        &self,
        unlabeled: &Recording,
        profile: &ProfileArtifact,
    ) -> Result<CategoryArtifact, SkyError> {
        self.check_env(&profile.meta, "profile artifact environment")?;
        if profile.meta.unlabeled_fp != recording_fingerprint(unlabeled) {
            return Err(SkyError::StaleArtifact {
                what: "profile artifact was built on a different unlabeled recording",
            });
        }

        let t0 = Instant::now();
        let sample_stride =
            ((1.0 / self.hyper.categorize_fraction.max(1e-6)).round() as usize).max(1);
        let sampled: Vec<ContentState> = unlabeled
            .segments()
            .iter()
            .step_by(sample_stride)
            .map(|s| s.content)
            .collect();
        if sampled.len() < self.hyper.n_categories {
            return Err(SkyError::InsufficientData {
                what: "too few segments for categorization",
            });
        }

        // One quality vector per sampled segment, scattered across the
        // pool; each (content, config) pair draws its observation noise
        // from its own generator.
        let workload = self.workload;
        let seed = self.hyper.seed;
        let profiles_ref = &profile.configs;
        let quality_vectors: Vec<Vec<f64>> = self.pool.par_map(&sampled, |_, content| {
            profiles_ref
                .iter()
                .map(|p| {
                    let mut rng = seeding::keyed_rng(
                        seed,
                        seeding::TAG_CATEGORIZE,
                        seeding::content_fingerprint(content),
                        seeding::config_fingerprint(&p.config),
                    );
                    workload.reported_quality(&p.config, content, &mut rng)
                })
                .collect()
        });

        let categories = ContentCategories::fit_on(
            &quality_vectors,
            self.hyper.n_categories,
            self.hyper.seed,
            self.clustering,
            &self.pool,
        );

        let qual_by_category: Vec<Vec<f64>> = (0..profile.configs.len())
            .map(|k| {
                (0..categories.len())
                    .map(|c| categories.avg_quality(k, c))
                    .collect()
            })
            .collect();

        // Category-conditional expected costs: work correlates with content
        // (rush hour means more objects to track), so the planner's budget
        // constraint charges each category what the configuration actually
        // costs on it. Categories unseen in the sample fall back to the
        // mean.
        let labels: Vec<usize> = quality_vectors
            .iter()
            .map(|v| categories.classify_full(v))
            .collect();
        let n_c = categories.len();
        let sampled_ref = &sampled;
        let labels_ref = &labels;
        let cost_by_category: Vec<Vec<f64>> = self.pool.par_map(&profile.configs, |_, prof| {
            let mut sums = vec![0.0f64; n_c];
            let mut counts = vec![0usize; n_c];
            for (content, &c) in sampled_ref.iter().zip(labels_ref.iter()) {
                sums[c] += workload.work(&prof.config, content);
                counts[c] += 1;
            }
            (0..n_c)
                .map(|c| {
                    if counts[c] > 0 {
                        sums[c] / counts[c] as f64
                    } else {
                        prof.work_mean
                    }
                })
                .collect()
        });

        // Ranking orders.
        let cost_rank = rank_by(&profile.configs, |p| p.work_mean, false);
        let quality_rank = rank_by(
            &qual_by_category,
            |row| row.iter().sum::<f64>() / n_c as f64,
            true,
        );

        // Discriminating configuration (footnote 7).
        let discriminator = categories.pick_discriminator(&cost_rank, 0.04);

        Ok(CategoryArtifact {
            meta: self.meta(
                profile.meta.labeled_fp,
                profile.meta.unlabeled_fp,
                profile.fingerprint(),
            ),
            categories,
            qual_by_category,
            cost_by_category,
            quality_rank,
            cost_rank,
            discriminator,
            categorize_secs: t0.elapsed().as_secs_f64(),
        })
    }

    // ------------------------------------------------------------------
    // Stage 3: forecast.
    // ------------------------------------------------------------------

    /// Label the unlabeled recording with the discriminating configuration,
    /// train the forecaster (§3.3, Appendices H and K), and calibrate the
    /// drift detector.
    pub fn forecast(
        &self,
        unlabeled: &Recording,
        profile: &ProfileArtifact,
        category: &CategoryArtifact,
    ) -> Result<ForecastArtifact, SkyError> {
        self.check_env(&category.meta, "category artifact environment")?;
        if category.meta.upstream_fp != profile.fingerprint() {
            return Err(SkyError::StaleArtifact {
                what: "category artifact was built from a different profile artifact",
            });
        }
        if category.meta.unlabeled_fp != recording_fingerprint(unlabeled) {
            return Err(SkyError::StaleArtifact {
                what: "category artifact was built on a different unlabeled recording",
            });
        }

        let discriminator = category.discriminator;
        let disc_config = profile.configs[discriminator].config.clone();

        let t0 = Instant::now();
        let timeline = CategoryTimeline::label(
            self.workload,
            unlabeled.segments(),
            &disc_config,
            discriminator,
            &category.categories,
            self.hyper.seed,
            &self.pool,
        )?;
        let forecast_data_secs = t0.elapsed().as_secs_f64();

        // In-distribution residual scale (drift-detector calibration):
        // distance of reported quality to the closest center along the
        // discriminator's dimension, over a stride sample of the labelled
        // data.
        let residual_p99 = {
            let strided: Vec<ContentState> = unlabeled
                .segments()
                .iter()
                .step_by(7)
                .map(|s| s.content)
                .collect();
            let workload = self.workload;
            let seed = self.hyper.seed;
            let categories_ref = &category.categories;
            let disc_ref = &disc_config;
            let mut residuals: Vec<f64> = self.pool.par_map(&strided, |_, content| {
                let mut rng = seeding::keyed_rng(
                    seed,
                    seeding::TAG_RESIDUAL,
                    seeding::content_fingerprint(content),
                    seeding::config_fingerprint(disc_ref),
                );
                let q = workload.reported_quality(disc_ref, content, &mut rng);
                let c = categories_ref.classify_single(discriminator, q);
                (categories_ref.avg_quality(discriminator, c) - q).abs()
            });
            if residuals.iter().any(|r| !r.is_finite()) {
                return Err(SkyError::NonFinite {
                    what: "drift-calibration residual",
                });
            }
            residuals.sort_by(|a, b| a.total_cmp(b));
            residuals[(residuals.len() as f64 * 0.99) as usize % residuals.len().max(1)]
        };

        let t0 = Instant::now();
        let spec = ForecastSpec {
            input_secs: self.hyper.forecast_input_secs,
            input_splits: self.hyper.forecast_input_splits,
            horizon_secs: self.hyper.planned_interval_secs,
            sample_every_secs: self.hyper.forecast_sample_every_secs,
        };
        let dataset = ForecastDataset::build(&timeline, &spec);
        let n_train_samples = dataset.len();
        let forecaster = Forecaster::train_on(
            dataset,
            spec,
            timeline.n_categories,
            self.hyper.forecast_epochs,
            self.hyper.forecast_val_fraction,
            self.hyper.seed,
        )
        .ok_or(SkyError::InsufficientData {
            what: "unlabeled recording shorter than forecaster input + horizon",
        })?;
        let train_secs = t0.elapsed().as_secs_f64();

        // Bootstrap tail: the most recent t_in of labels.
        let seg_len = self.workload.segment_len();
        let tail_segs =
            ((self.hyper.forecast_input_secs / seg_len).round() as usize).min(timeline.len());
        let tail_cats = timeline.categories[timeline.len() - tail_segs..].to_vec();
        let tail = CategoryTimeline::new(tail_cats, seg_len, category.categories.len())?;

        Ok(ForecastArtifact {
            meta: self.meta(
                category.meta.labeled_fp,
                category.meta.unlabeled_fp,
                category.fingerprint(),
            ),
            forecaster,
            tail,
            residual_p99,
            n_train_samples,
            forecast_data_secs,
            train_secs,
        })
    }

    // ------------------------------------------------------------------
    // Stage 4: plan.
    // ------------------------------------------------------------------

    /// Assemble the [`FittedModel`] and seed the initial knob plan — the
    /// plan the first online interval would install, computed from the
    /// bootstrap-tail forecast at zero cloud budget.
    pub fn plan(
        &self,
        profile: &ProfileArtifact,
        category: &CategoryArtifact,
        forecast: &ForecastArtifact,
    ) -> Result<PlanArtifact, SkyError> {
        self.check_env(&forecast.meta, "forecast artifact environment")?;
        if forecast.meta.upstream_fp != category.fingerprint() {
            return Err(SkyError::StaleArtifact {
                what: "forecast artifact was built from a different category artifact",
            });
        }
        if category.meta.upstream_fp != profile.fingerprint() {
            return Err(SkyError::StaleArtifact {
                what: "category artifact was built from a different profile artifact",
            });
        }

        let mut configs = profile.configs.clone();
        for (k, prof) in configs.iter_mut().enumerate() {
            prof.qual_by_category = category.qual_by_category[k].clone();
            prof.cost_by_category = category.cost_by_category[k].clone();
        }

        let model = FittedModel {
            workload_name: self.workload.name().to_string(),
            seg_len: self.workload.segment_len(),
            configs,
            quality_rank: category.quality_rank.clone(),
            cost_rank: category.cost_rank.clone(),
            categories: category.categories.clone(),
            forecaster: forecast.forecaster.clone(),
            discriminator: category.discriminator,
            tail: forecast.tail.clone(),
            hyper: self.hyper.clone(),
            hardware: self.hardware,
            residual_p99: forecast.residual_p99,
        };

        let r = model
            .forecaster
            .forecast(&model.tail.categories, model.seg_len);
        let seed_plan = plan_knobs(&model, &r, 0.0)?;

        Ok(PlanArtifact {
            meta: self.meta(
                forecast.meta.labeled_fp,
                forecast.meta.unlabeled_fp,
                forecast.fingerprint(),
            ),
            model,
            seed_plan,
        })
    }

    // ------------------------------------------------------------------
    // Whole-pipeline drivers.
    // ------------------------------------------------------------------

    /// Run all four stages cold.
    pub fn run(
        &self,
        labeled: &Recording,
        unlabeled: &Recording,
    ) -> Result<(OfflineArtifacts, OfflineReport), SkyError> {
        let profile = self.profile(labeled, unlabeled)?;
        let category = self.categorize(unlabeled, &profile)?;
        let forecast = self.forecast(unlabeled, &profile, &category)?;
        let plan = self.plan(&profile, &category, &forecast)?;
        let artifacts = OfflineArtifacts {
            profile,
            category,
            forecast,
            plan,
        };
        let report = self.report(&artifacts);
        Ok((artifacts, report))
    }

    /// Refit on (possibly grown) recordings. When the environment, both
    /// recordings and the artifact chain of `prev` all match, nothing
    /// changed and `prev` is returned as is (`stages_reused = 4`);
    /// otherwise every stage runs cold. Either way the result is bitwise
    /// identical to a cold [`run`](Self::run) on the same data.
    pub fn refit(
        &self,
        prev: &OfflineArtifacts,
        labeled: &Recording,
        unlabeled: &Recording,
    ) -> Result<(OfflineArtifacts, OfflineReport), SkyError> {
        if !self.is_current(prev, labeled, unlabeled) {
            return self.run(labeled, unlabeled);
        }
        let report = OfflineReport {
            stages_reused: 4,
            ..self.report(prev)
        };
        Ok((prev.clone(), report))
    }

    /// Would a cold fit on `labeled` and `unlabeled` reproduce `prev`? True
    /// when every stage was fitted in this environment on exactly these
    /// recordings, each from the upstream artifact `prev` holds.
    fn is_current(
        &self,
        prev: &OfflineArtifacts,
        labeled: &Recording,
        unlabeled: &Recording,
    ) -> bool {
        let (labeled_fp, unlabeled_fp) = (
            recording_fingerprint(labeled),
            recording_fingerprint(unlabeled),
        );
        let OfflineArtifacts {
            profile,
            category,
            forecast,
            plan,
        } = prev;
        [&profile.meta, &category.meta, &forecast.meta, &plan.meta]
            .iter()
            .all(|m| {
                self.env_matches(m) && m.labeled_fp == labeled_fp && m.unlabeled_fp == unlabeled_fp
            })
            && category.meta.upstream_fp == profile.fingerprint()
            && forecast.meta.upstream_fp == category.fingerprint()
            && plan.meta.upstream_fp == forecast.fingerprint()
    }

    fn report(&self, artifacts: &OfflineArtifacts) -> OfflineReport {
        OfflineReport {
            filter_configs_secs: artifacts.profile.filter_configs_secs,
            filter_placements_secs: artifacts.profile.filter_placements_secs,
            categorize_secs: artifacts.category.categorize_secs,
            forecast_data_secs: artifacts.forecast.forecast_data_secs,
            train_secs: artifacts.forecast.train_secs,
            n_configs: artifacts.profile.configs.len(),
            n_placements: artifacts
                .profile
                .configs
                .iter()
                .map(|p| p.placements.len())
                .sum(),
            n_categories: artifacts.category.categories.len(),
            forecast_mae: artifacts.forecast.forecaster.val_mae,
            n_train_samples: artifacts.forecast.n_train_samples,
            n_workers: self.pool.size(),
            stages_reused: 0,
        }
    }
}

fn argmin<T>(items: &[T], key: impl Fn(&T) -> f64) -> Result<usize, SkyError> {
    items
        .iter()
        .enumerate()
        .min_by(|a, b| key(a.1).total_cmp(&key(b.1)))
        .map(|(i, _)| i)
        .ok_or(SkyError::InsufficientData {
            what: "no profiled configurations",
        })
}

fn rank_by<T>(items: &[T], key: impl Fn(&T) -> f64, descending: bool) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    idx.sort_by(|&a, &b| {
        let ord = key(&items[a]).total_cmp(&key(&items[b]));
        if descending {
            ord.reverse()
        } else {
            ord
        }
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ToyWorkload;
    use vetl_video::{ContentParams, SyntheticCamera};

    fn data(unlabeled_secs: f64) -> (Recording, Recording, Recording) {
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, unlabeled_secs);
        let extra = Recording::record(&mut cam, 0.5 * unlabeled_secs);
        let mut extended = unlabeled.segments().to_vec();
        extended.extend_from_slice(extra.segments());
        (labeled, unlabeled, Recording::from_segments(extended))
    }

    fn pipeline(w: &ToyWorkload) -> OfflinePipeline<'_, ToyWorkload> {
        OfflinePipeline::new(
            w,
            HardwareSpec::with_cores(4),
            SkyscraperConfig::fast_test(),
        )
    }

    #[test]
    fn staged_run_matches_monolithic_wrapper() {
        let w = ToyWorkload::new();
        let (labeled, unlabeled, _) = data(86_400.0);
        let p = pipeline(&w);
        let profile = p.profile(&labeled, &unlabeled).expect("profile");
        let category = p.categorize(&unlabeled, &profile).expect("categorize");
        let forecast = p
            .forecast(&unlabeled, &profile, &category)
            .expect("forecast");
        let plan = p.plan(&profile, &category, &forecast).expect("plan");

        let (wrapped, _) = super::super::run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(4),
            &SkyscraperConfig::fast_test(),
        )
        .expect("wrapper fit");
        assert_eq!(
            plan.model.fingerprint(),
            wrapped.fingerprint(),
            "staged and monolithic fits must agree bitwise"
        );
        assert_eq!(plan.seed_plan.n_categories(), wrapped.n_categories());
        assert_eq!(plan.seed_plan.n_configs(), wrapped.n_configs());
    }

    #[test]
    fn stale_artifacts_are_rejected() {
        let w = ToyWorkload::new();
        let (labeled, unlabeled, extended) = data(43_200.0);
        let p = pipeline(&w);
        let profile = p.profile(&labeled, &unlabeled).expect("profile");

        // Different data under the same artifact → stale.
        let err = p.categorize(&extended, &profile).unwrap_err();
        assert!(matches!(err, SkyError::StaleArtifact { .. }));

        // Different hyperparameters → stale environment.
        let p2 = OfflinePipeline::new(
            &w,
            HardwareSpec::with_cores(4),
            SkyscraperConfig {
                n_categories: 4,
                ..SkyscraperConfig::fast_test()
            },
        );
        let err = p2.categorize(&unlabeled, &profile).unwrap_err();
        assert!(matches!(err, SkyError::StaleArtifact { .. }));

        // A broken upstream chain → stale.
        let category = p.categorize(&unlabeled, &profile).expect("categorize");
        let mut other_profile = profile.clone();
        other_profile.configs[0].work_mean += 1.0;
        let err = p
            .forecast(&unlabeled, &other_profile, &category)
            .unwrap_err();
        assert!(matches!(err, SkyError::StaleArtifact { .. }));
    }

    #[test]
    fn refit_on_identical_data_reuses_every_stage() {
        let w = ToyWorkload::new();
        let (labeled, unlabeled, _) = data(43_200.0);
        let p = pipeline(&w);
        let (arts, cold) = p.run(&labeled, &unlabeled).expect("cold run");
        assert_eq!(cold.stages_reused, 0);
        let (rearts, warm) = p.refit(&arts, &labeled, &unlabeled).expect("warm refit");
        assert_eq!(
            warm.stages_reused, 4,
            "nothing changed — reuse everything, run nothing"
        );
        assert_eq!(
            warm.total_secs(),
            cold.total_secs(),
            "the report carries the previous fit's timings: no stage ran"
        );
        assert_eq!(
            rearts.plan.model.fingerprint(),
            arts.plan.model.fingerprint()
        );
    }

    #[test]
    fn incremental_refit_matches_cold_fit_bitwise() {
        let w = ToyWorkload::new();
        let (labeled, unlabeled, extended) = data(43_200.0);

        // Refit path: fit on the base recording, then refit on the extended
        // one.
        let warm_pipeline = pipeline(&w);
        let (base_arts, _) = warm_pipeline.run(&labeled, &unlabeled).expect("base fit");
        let (warm_arts, warm_report) = warm_pipeline
            .refit(&base_arts, &labeled, &extended)
            .expect("warm refit");

        // Cold path: a fresh pipeline fits the extended recording directly.
        let cold_pipeline = pipeline(&w);
        let (cold_arts, _) = cold_pipeline.run(&labeled, &extended).expect("cold fit");

        assert_eq!(
            warm_arts.plan.model.fingerprint(),
            cold_arts.plan.model.fingerprint(),
            "incremental refit must be bitwise identical to a cold fit"
        );
        assert_eq!(warm_report.stages_reused, 0, "grown data is a cold fit");
    }

    #[test]
    fn changed_seed_falls_back_to_full_refit() {
        let w = ToyWorkload::new();
        let (labeled, unlabeled, _) = data(43_200.0);
        let p = pipeline(&w);
        let (arts, _) = p.run(&labeled, &unlabeled).expect("fit");

        let reseeded = OfflinePipeline::new(
            &w,
            HardwareSpec::with_cores(4),
            SkyscraperConfig {
                seed: 43,
                ..SkyscraperConfig::fast_test()
            },
        );
        let (rearts, report) = reseeded.refit(&arts, &labeled, &unlabeled).expect("refit");
        assert_eq!(report.stages_reused, 0, "stale artifacts are not reused");
        assert_ne!(
            rearts.plan.model.fingerprint(),
            arts.plan.model.fingerprint(),
            "a different seed draws different noise"
        );
    }
}
