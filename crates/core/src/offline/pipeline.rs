//! The offline phase (§3) as one fit, and the stamp that decides whether a
//! refit may keep it.
//!
//! `OfflinePipeline::run` runs four private steps in order and returns the
//! one thing the online phase reads, the [`FittedModel`], with its
//! [`OfflineReport`]:
//!
//! ```text
//! profile ──▶ categorize ──▶ forecast ──▶ assemble
//!  (A.1 config     (§3.2 KMeans over    (App. H labelling,    (the FittedModel;
//!   filtering +     quality vectors,     §3.3 forecaster       its bootstrap
//!   A.2 placement   ranks, discrim-      training, drift       forecast must
//!   profiling)      inator choice)       calibration)          plan)
//! ```
//!
//! Nothing resumes between steps, and nothing but the model is kept.
//!
//! **Refit** keys on a [`FitStamp`]: the workload's fingerprint plus one
//! fingerprint of every other input of the fit (hyperparameters,
//! clustering, hardware, seed, and both recordings). Equal stamps mean a
//! cold fit would reproduce the kept model bit for bit, so
//! [`Skyscraper::refit`](crate::Skyscraper::refit) keeps it; any difference
//! is a cold fit.

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

/// What a fit was computed from. Two fits with equal stamps produce
/// bitwise-identical models, so a refit whose stamp equals the kept one
/// has nothing to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitStamp {
    /// [`Workload::fingerprint`] of the fitted workload. Kept apart from
    /// `inputs_fp` so a knowledge base fitted on a different knob registry
    /// can be refused on load.
    pub workload_fp: u64,
    /// One fingerprint over the hyperparameters, the clustering algorithm,
    /// the hardware, the seed and both recordings. The worker count is left
    /// out: fits are bit-identical for every pool size.
    pub inputs_fp: u64,
}

impl FitStamp {
    /// The stamp of fitting `workload` on `labeled` + `unlabeled`.
    pub fn new<W: Workload + ?Sized>(
        workload: &W,
        hardware: &HardwareSpec,
        hyper: &SkyscraperConfig,
        clustering: ClusteringAlgo,
        labeled: &Recording,
        unlabeled: &Recording,
    ) -> Self {
        let ClusterSpec { cores, core_speed } = hardware.cluster;
        let CloudSpec {
            rtt_secs,
            uplink_bytes_per_sec,
            downlink_bytes_per_sec,
            usd_per_compute_sec,
            usd_per_invocation,
        } = hardware.cloud;
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
            .eat(match clustering {
                ClusteringAlgo::KMeans => 0,
                ClusteringAlgo::Gmm => 1,
            })
            .eat(cores as u64)
            .eat_f64(core_speed)
            .eat_f64(rtt_secs)
            .eat_f64(uplink_bytes_per_sec)
            .eat_f64(downlink_bytes_per_sec)
            .eat_f64(usd_per_compute_sec)
            .eat_f64(usd_per_invocation)
            .eat_f64(hardware.buffer_bytes)
            .eat(recording_fingerprint(labeled))
            .eat(recording_fingerprint(unlabeled));
        Self {
            workload_fp: workload.fingerprint(),
            inputs_fp: h.finish(),
        }
    }
}

/// The categorize step's product: the categories and what is ranked and
/// chosen by them.
struct Categorized {
    categories: ContentCategories,
    quality_rank: Vec<usize>,
    cost_rank: Vec<usize>,
    discriminator: usize,
}

/// The forecast step's product.
struct Forecasted {
    forecaster: Forecaster,
    tail: CategoryTimeline,
    residual_p99: f64,
}

/// One offline fit: a workload, the hardware and hyperparameters it is
/// fitted for, and the pool the scatter-gather steps fan out over.
pub(super) struct OfflinePipeline<'w, W: Workload + ?Sized> {
    workload: &'w W,
    hardware: HardwareSpec,
    hyper: SkyscraperConfig,
    clustering: ClusteringAlgo,
    pool: ActorPool,
}

impl<'w, W: Workload + ?Sized> OfflinePipeline<'w, W> {
    pub(super) fn new(
        workload: &'w W,
        hardware: HardwareSpec,
        hyper: SkyscraperConfig,
        clustering: ClusteringAlgo,
    ) -> Self {
        let pool = ActorPool::new(hyper.resolved_workers());
        Self {
            workload,
            hardware,
            hyper,
            clustering,
            pool,
        }
    }

    /// Run the four steps cold.
    pub(super) fn run(
        &self,
        labeled: &Recording,
        unlabeled: &Recording,
    ) -> Result<(FittedModel, OfflineReport), SkyError> {
        let mut report = OfflineReport {
            n_workers: self.pool.size(),
            ..OfflineReport::default()
        };
        let mut configs = self.profile(labeled, unlabeled, &mut report)?;
        let categorized = self.categorize(unlabeled, &mut configs, &mut report)?;
        let forecasted = self.forecast(unlabeled, &configs, &categorized, &mut report)?;
        let model = self.assemble(configs, categorized, forecasted)?;
        report.n_configs = model.configs.len();
        report.n_placements = model.configs.iter().map(|p| p.placements.len()).sum();
        report.n_categories = model.categories.len();
        report.forecast_mae = model.forecaster.val_mae;
        Ok((model, report))
    }

    /// Filter knob configurations (Appendix A.1) and profile their
    /// placements on the provisioned hardware (Appendix A.2). The
    /// category-conditional columns stay empty until [`Self::categorize`].
    fn profile(
        &self,
        labeled: &Recording,
        unlabeled: &Recording,
        report: &mut OfflineReport,
    ) -> Result<Vec<ConfigProfile>, SkyError> {
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
        report.filter_configs_secs = t0.elapsed().as_secs_f64();

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
        report.filter_placements_secs = t0.elapsed().as_secs_f64();

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
        Ok(profiles)
    }

    /// Categorize video dynamics (§3.2): KMeans over quality vectors of a
    /// sampled fraction of the unlabeled recording, the category-conditional
    /// quality/cost columns of every profile, ranking orders, and the
    /// discriminator choice.
    fn categorize(
        &self,
        unlabeled: &Recording,
        configs: &mut [ConfigProfile],
        report: &mut OfflineReport,
    ) -> Result<Categorized, SkyError> {
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
        let profiles_ref = &*configs;
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

        let qual_by_category: Vec<Vec<f64>> = (0..configs.len())
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
        let cost_by_category: Vec<Vec<f64>> = self.pool.par_map(configs, |_, prof| {
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
        let cost_rank = rank_by(configs, |p| p.work_mean, false);
        let quality_rank = rank_by(
            &qual_by_category,
            |row| row.iter().sum::<f64>() / n_c as f64,
            true,
        );

        // Discriminating configuration (footnote 7).
        let discriminator = categories.pick_discriminator(&cost_rank, 0.04);

        for ((prof, qual), cost) in configs
            .iter_mut()
            .zip(qual_by_category)
            .zip(cost_by_category)
        {
            prof.qual_by_category = qual;
            prof.cost_by_category = cost;
        }
        report.categorize_secs = t0.elapsed().as_secs_f64();
        Ok(Categorized {
            categories,
            quality_rank,
            cost_rank,
            discriminator,
        })
    }

    /// Label the unlabeled recording with the discriminating configuration,
    /// train the forecaster (§3.3, Appendices H and K), and calibrate the
    /// drift detector.
    fn forecast(
        &self,
        unlabeled: &Recording,
        configs: &[ConfigProfile],
        categorized: &Categorized,
        report: &mut OfflineReport,
    ) -> Result<Forecasted, SkyError> {
        let categories = &categorized.categories;
        let discriminator = categorized.discriminator;
        let disc_config = configs[discriminator].config.clone();

        let t0 = Instant::now();
        let timeline = CategoryTimeline::label(
            self.workload,
            unlabeled.segments(),
            &disc_config,
            discriminator,
            categories,
            self.hyper.seed,
            &self.pool,
        )?;
        report.forecast_data_secs = t0.elapsed().as_secs_f64();

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
            let disc_ref = &disc_config;
            let mut residuals: Vec<f64> = self.pool.par_map(&strided, |_, content| {
                let mut rng = seeding::keyed_rng(
                    seed,
                    seeding::TAG_RESIDUAL,
                    seeding::content_fingerprint(content),
                    seeding::config_fingerprint(disc_ref),
                );
                let q = workload.reported_quality(disc_ref, content, &mut rng);
                let c = categories.classify_single(discriminator, q);
                (categories.avg_quality(discriminator, c) - q).abs()
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
        report.n_train_samples = dataset.len();
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
        report.train_secs = t0.elapsed().as_secs_f64();

        // Bootstrap tail: the most recent t_in of labels.
        let seg_len = self.workload.segment_len();
        let tail_segs =
            ((self.hyper.forecast_input_secs / seg_len).round() as usize).min(timeline.len());
        let tail_cats = timeline.categories[timeline.len() - tail_segs..].to_vec();
        let tail = CategoryTimeline::new(tail_cats, seg_len, categories.len())?;

        Ok(Forecasted {
            forecaster,
            tail,
            residual_p99,
        })
    }

    /// Assemble the [`FittedModel`] and check that the first online
    /// interval can be planned: the bootstrap-tail forecast must yield a
    /// knob plan at zero cloud budget.
    fn assemble(
        &self,
        configs: Vec<ConfigProfile>,
        categorized: Categorized,
        forecasted: Forecasted,
    ) -> Result<FittedModel, SkyError> {
        let Categorized {
            categories,
            quality_rank,
            cost_rank,
            discriminator,
        } = categorized;
        let Forecasted {
            forecaster,
            tail,
            residual_p99,
        } = forecasted;
        let model = FittedModel {
            workload_name: self.workload.name().to_string(),
            seg_len: self.workload.segment_len(),
            configs,
            quality_rank,
            cost_rank,
            categories,
            forecaster,
            discriminator,
            tail,
            hyper: self.hyper.clone(),
            hardware: self.hardware,
            residual_p99,
        };
        let r = model
            .forecaster
            .forecast(&model.tail.categories, model.seg_len);
        plan_knobs(&model, &r, 0.0)?;
        Ok(model)
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
    use crate::knob::{Knob, KnobConfig};
    use crate::testkit::ToyWorkload;
    use vetl_sim::TaskGraph;
    use vetl_video::{ContentParams, SyntheticCamera};

    /// [`ToyWorkload`] under another identity: same name, same knobs, a
    /// different fingerprint.
    struct Retuned(ToyWorkload);

    impl Workload for Retuned {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn knobs(&self) -> &[Knob] {
            self.0.knobs()
        }
        fn segment_len(&self) -> f64 {
            self.0.segment_len()
        }
        fn task_graph(&self, c: &KnobConfig, s: &ContentState) -> TaskGraph {
            self.0.task_graph(c, s)
        }
        fn true_quality(&self, c: &KnobConfig, s: &ContentState) -> f64 {
            self.0.true_quality(c, s)
        }
        fn reported_quality(&self, c: &KnobConfig, s: &ContentState, r: &mut StdRng) -> f64 {
            self.0.reported_quality(c, s, r)
        }
        fn fingerprint(&self) -> u64 {
            self.0.fingerprint() ^ 1
        }
    }

    /// One edit of one fit input.
    type Edit<T> = fn(&mut T);

    #[test]
    fn every_fit_input_but_the_worker_count_moves_the_stamp() {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 600.0);
        let unlabeled = Recording::record(&mut cam, 3_600.0);
        let hw = HardwareSpec::with_cores(4);
        let hyper = SkyscraperConfig::fast_test();
        let km = ClusteringAlgo::KMeans;
        let base = FitStamp::new(&w, &hw, &hyper, km, &labeled, &unlabeled);
        assert_eq!(
            base,
            FitStamp::new(&w, &hw, &hyper, km, &labeled, &unlabeled),
            "the stamp is a pure function of the inputs"
        );

        let moved = |what: &str, stamp: FitStamp| assert_ne!(stamp, base, "{what}");
        let other = Retuned(ToyWorkload::new());
        let renamed = FitStamp::new(&other, &hw, &hyper, km, &labeled, &unlabeled);
        assert_ne!(renamed.workload_fp, base.workload_fp, "workload");
        assert_eq!(
            renamed.inputs_fp, base.inputs_fp,
            "the workload is kept apart"
        );

        let hyper_with = |f: fn(&mut SkyscraperConfig)| {
            let mut h = hyper.clone();
            f(&mut h);
            FitStamp::new(&w, &hw, &h, km, &labeled, &unlabeled)
        };
        let hypers: [(&str, Edit<SkyscraperConfig>); 13] = [
            ("n_categories", |h| h.n_categories += 1),
            ("switch_period_secs", |h| h.switch_period_secs *= 2.0),
            ("planned_interval_secs", |h| h.planned_interval_secs *= 2.0),
            ("forecast_input_secs", |h| h.forecast_input_secs *= 2.0),
            ("forecast_input_splits", |h| h.forecast_input_splits += 1),
            ("forecast_sample_every_secs", |h| {
                h.forecast_sample_every_secs *= 2.0
            }),
            ("forecast_epochs", |h| h.forecast_epochs += 1),
            ("forecast_val_fraction", |h| h.forecast_val_fraction /= 2.0),
            ("n_presample", |h| h.n_presample += 1),
            ("n_search", |h| h.n_search += 1),
            ("categorize_fraction", |h| h.categorize_fraction /= 2.0),
            ("runtime_safety", |h| h.runtime_safety *= 2.0),
            ("seed", |h| h.seed += 1),
        ];
        for (what, f) in hypers {
            moved(what, hyper_with(f));
        }
        assert_eq!(
            hyper_with(|h| h.n_workers += 3),
            base,
            "n_workers does not change what a fit computes"
        );

        moved(
            "clustering",
            FitStamp::new(&w, &hw, &hyper, ClusteringAlgo::Gmm, &labeled, &unlabeled),
        );
        let hw_with = |f: fn(&mut HardwareSpec)| {
            let mut h = hw;
            f(&mut h);
            FitStamp::new(&w, &h, &hyper, km, &labeled, &unlabeled)
        };
        let hardware: [(&str, Edit<HardwareSpec>); 8] = [
            ("cores", |h| h.cluster.cores += 1),
            ("core_speed", |h| h.cluster.core_speed *= 2.0),
            ("rtt_secs", |h| h.cloud.rtt_secs *= 2.0),
            ("uplink", |h| h.cloud.uplink_bytes_per_sec *= 2.0),
            ("downlink", |h| h.cloud.downlink_bytes_per_sec *= 2.0),
            ("usd_per_compute_sec", |h| {
                h.cloud.usd_per_compute_sec *= 2.0
            }),
            ("usd_per_invocation", |h| h.cloud.usd_per_invocation *= 2.0),
            ("buffer_bytes", |h| h.buffer_bytes *= 2.0),
        ];
        for (what, f) in hardware {
            moved(what, hw_with(f));
        }

        let longer = Recording::record(&mut cam, 60.0);
        let grow = |r: &Recording| {
            let mut segs = r.segments().to_vec();
            segs.extend_from_slice(longer.segments());
            Recording::from_segments(segs)
        };
        moved(
            "labeled recording",
            FitStamp::new(&w, &hw, &hyper, km, &grow(&labeled), &unlabeled),
        );
        moved(
            "unlabeled recording",
            FitStamp::new(&w, &hw, &hyper, km, &labeled, &grow(&unlabeled)),
        );
        moved(
            "recordings swapped",
            FitStamp::new(&w, &hw, &hyper, km, &unlabeled, &labeled),
        );
    }
}
