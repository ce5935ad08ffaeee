//! The content-distribution forecaster (§3.3, Appendices H and K).
//!
//! The forecaster predicts how often each content category appears in the
//! next *planned interval* from how often categories appeared in the recent
//! past. Inputs are `n_split` category histograms covering the last `t_in`
//! seconds; the output is one histogram over the next `t_out` seconds.
//!
//! Training data is generated from the unlabeled recording by labelling every
//! segment with the cheap discriminating configuration (Appendix H) and
//! sliding a window at 15-minute steps (Appendix K.1). The network is the
//! Appendix-K feed-forward net trained for 40 epochs with a 20 % validation
//! split, keeping the best-validation weights.

use vetl_exec::ActorPool;
use vetl_ml::nn::FitConfig;
use vetl_ml::{mean_absolute_error, Adam, Loss, Mlp};

use super::seeding;
use crate::category::ContentCategories;
use crate::error::SkyError;
use crate::knob::KnobConfig;
use crate::workload::Workload;

/// A per-segment category timeline.
#[derive(Debug, Clone)]
pub struct CategoryTimeline {
    /// Category index of each consecutive segment.
    pub categories: Vec<usize>,
    /// Segment duration in seconds.
    pub seg_len: f64,
    /// Number of distinct categories.
    pub n_categories: usize,
}

impl CategoryTimeline {
    /// Build a timeline from raw per-segment categories. Rejects a
    /// non-positive segment length, an empty category set, and out-of-range
    /// labels with typed errors instead of panicking.
    pub fn new(
        categories: Vec<usize>,
        seg_len: f64,
        n_categories: usize,
    ) -> Result<Self, SkyError> {
        if !seg_len.is_finite() || seg_len <= 0.0 {
            return Err(SkyError::InvalidInput {
                what: "timeline segment length must be positive",
            });
        }
        if n_categories == 0 {
            return Err(SkyError::InvalidInput {
                what: "timeline needs at least one category",
            });
        }
        if categories.iter().any(|&c| c >= n_categories) {
            return Err(SkyError::InvalidInput {
                what: "timeline category label out of range",
            });
        }
        Ok(Self {
            categories,
            seg_len,
            n_categories,
        })
    }

    /// Label the contents of `segments` by running the discriminating
    /// configuration and classifying its reported quality (Appendix H).
    ///
    /// This is the dominant offline cost (83 % of the paper's 1.6 h phase)
    /// and embarrassingly parallel: segments are labelled in chunks
    /// scattered across `pool`. Each segment's quality noise comes from its
    /// own seed-derived generator, so the timeline is identical for every
    /// worker count.
    pub fn label<W: Workload + ?Sized>(
        workload: &W,
        segments: &[vetl_video::Segment],
        discriminator: &KnobConfig,
        discriminator_idx: usize,
        categories: &ContentCategories,
        seed: u64,
        pool: &ActorPool,
    ) -> Result<Self, SkyError> {
        // Coarse chunks amortize task dispatch over thousands of cheap
        // per-segment evaluations.
        const CHUNK: usize = 1024;
        let chunks: Vec<&[vetl_video::Segment]> = segments.chunks(CHUNK).collect();
        let labelled: Vec<Vec<usize>> = pool.par_map(&chunks, |_, chunk| {
            chunk
                .iter()
                .map(|s| {
                    let mut rng = seeding::keyed_rng(
                        seed,
                        seeding::TAG_LABEL,
                        seeding::content_fingerprint(&s.content),
                        seeding::config_fingerprint(discriminator),
                    );
                    let q = workload.reported_quality(discriminator, &s.content, &mut rng);
                    categories.classify_single(discriminator_idx, q)
                })
                .collect()
        });
        Self::new(labelled.concat(), workload.segment_len(), categories.len())
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.categories.len()
    }

    /// True when no segments are recorded.
    pub fn is_empty(&self) -> bool {
        self.categories.is_empty()
    }

    /// Normalized histogram of categories over segment range `[from, to)`,
    /// counted directly. Out-of-range bounds are clamped to the timeline (an
    /// empty window yields the all-zero histogram).
    pub fn histogram(&self, from: usize, to: usize) -> Vec<f64> {
        let to = to.min(self.len());
        let from = from.min(to);
        let mut bins = vec![0.0; self.n_categories];
        count_normalized(&mut bins, &self.categories[from..to]);
        bins
    }
}

/// Fill `bins` with the normalized label histogram of `window` (all-zero for
/// an empty window): integer counts divided by the window length.
///
/// Each category counts into four interleaved lanes. Labels come in runs, and
/// a single counter would chain every increment of a run on the previous
/// one's store — 3× slower on real timelines.
///
/// # Panics
/// On a label `>= bins.len()`. Labels are range-checked where they enter the
/// program — [`CategoryTimeline::new`] and the session checkpoint decoder.
fn count_normalized(bins: &mut [f64], window: &[usize]) {
    let mut lanes = vec![[0u32; 4]; bins.len()];
    for (i, &c) in window.iter().enumerate() {
        lanes[c][i % 4] += 1;
    }
    let n = window.len().max(1) as f64;
    for (bin, lanes) in bins.iter_mut().zip(&lanes) {
        *bin = lanes.iter().sum::<u32>() as f64 / n;
    }
}

/// The forecaster's input features: `spec.input_splits` consecutive
/// histograms covering the last `t_in` of `recent` (one label per segment,
/// oldest first). Windows are counted back from the end and clamped into a
/// history shorter than `t_in`, so a short history pads by repetition.
///
/// This is the only place forecaster input windows are computed: training
/// rows ([`ForecastDataset::build`]) and served forecasts
/// ([`Forecaster::forecast`]) both come from it. It counts the slice directly
/// — O(`t_in` / `seg_len`) per call, no table, no copy — and panics on a
/// label `>= n_categories` like [`count_normalized`].
fn featurize(recent: &[usize], seg_len: f64, spec: &ForecastSpec, n_categories: usize) -> Vec<f64> {
    let in_segs = ((spec.input_secs / seg_len).round() as usize).max(spec.input_splits);
    let split = (in_segs / spec.input_splits).max(1);
    let len = recent.len();
    let mut input = vec![0.0; spec.input_splits * n_categories];
    for s in 0..spec.input_splits {
        let from_back = in_segs - s * split;
        let to_back = from_back.saturating_sub(split);
        let from = len.saturating_sub(from_back);
        let to = len.saturating_sub(to_back).max(from + 1).min(len);
        let bins = &mut input[s * n_categories..(s + 1) * n_categories];
        count_normalized(bins, &recent[from..to]);
    }
    input
}

/// Featurization/horizon parameters of the forecaster.
#[derive(Debug, Clone, Copy)]
pub struct ForecastSpec {
    /// Input span `t_in` in seconds.
    pub input_secs: f64,
    /// Number of histograms the input span is split into.
    pub input_splits: usize,
    /// Forecast horizon `t_out` (the planned interval) in seconds.
    pub horizon_secs: f64,
    /// Stride between consecutive training samples in seconds.
    pub sample_every_secs: f64,
}

/// Supervised dataset for the forecaster.
#[derive(Debug, Clone, Default)]
pub struct ForecastDataset {
    /// Concatenated input histograms, one row per sample.
    pub inputs: Vec<Vec<f64>>,
    /// Target histogram per sample.
    pub targets: Vec<Vec<f64>>,
}

impl ForecastDataset {
    /// Slide a window over `timeline` per `spec` and emit samples.
    pub fn build(timeline: &CategoryTimeline, spec: &ForecastSpec) -> Self {
        let seg = timeline.seg_len;
        let in_segs = (spec.input_secs / seg).round() as usize;
        let out_segs = (spec.horizon_secs / seg).round() as usize;
        let stride = ((spec.sample_every_secs / seg).round() as usize).max(1);

        let mut ds = ForecastDataset::default();
        if timeline.len() < in_segs + out_segs || in_segs == 0 || out_segs == 0 {
            return ds;
        }
        let mut t = in_segs;
        while t + out_segs <= timeline.len() {
            ds.inputs.push(featurize(
                &timeline.categories[..t],
                seg,
                spec,
                timeline.n_categories,
            ));
            ds.targets.push(timeline.histogram(t, t + out_segs));
            t += stride;
        }
        ds
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// True when no samples were generated.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Keep only the first `n` samples (Fig. 18's data-efficiency sweep).
    pub fn truncate(&mut self, n: usize) {
        self.inputs.truncate(n);
        self.targets.truncate(n);
    }
}

/// The trained forecasting model `F`.
#[derive(Debug, Clone)]
pub struct Forecaster {
    net: Mlp,
    spec: ForecastSpec,
    n_categories: usize,
    /// Validation MAE from training (reported in Tables 5/6).
    pub val_mae: f64,
}

impl Forecaster {
    /// Train on a labeled timeline. Returns `None` when the timeline is too
    /// short to produce a single sample.
    pub fn train(
        timeline: &CategoryTimeline,
        spec: ForecastSpec,
        epochs: usize,
        val_fraction: f64,
        seed: u64,
    ) -> Option<Self> {
        let ds = ForecastDataset::build(timeline, &spec);
        Self::train_on(ds, spec, timeline.n_categories, epochs, val_fraction, seed)
    }

    /// Train on a pre-built dataset (used by the data-efficiency sweep).
    pub fn train_on(
        ds: ForecastDataset,
        spec: ForecastSpec,
        n_categories: usize,
        epochs: usize,
        val_fraction: f64,
        seed: u64,
    ) -> Option<Self> {
        if ds.is_empty() {
            return None;
        }
        let input_dim = ds.inputs[0].len();
        let mut net = Mlp::forecaster(input_dim, n_categories, seed);
        let mut opt = Adam::new(5e-3);
        net.fit(
            &ds.inputs,
            &ds.targets,
            &mut opt,
            &FitConfig {
                epochs,
                batch_size: 16,
                val_fraction,
                loss: Loss::CrossEntropy,
                seed,
            },
        );
        // Report MAE on the tail 20 % as a pseudo-holdout (deterministic).
        let n_val = (ds.len() as f64 * 0.2).ceil() as usize;
        let start = ds.len().saturating_sub(n_val.max(1));
        let preds: Vec<Vec<f64>> = ds.inputs[start..].iter().map(|x| net.forward(x)).collect();
        let val_mae = mean_absolute_error(&preds, &ds.targets[start..]);
        Some(Self {
            net,
            spec,
            n_categories,
            val_mae,
        })
    }

    /// Rebuild a forecaster from its persisted parts (knowledge-base
    /// deserialization). The network must map `input_splits × n_categories`
    /// features to `n_categories` outputs.
    pub fn from_parts(
        net: Mlp,
        spec: ForecastSpec,
        n_categories: usize,
        val_mae: f64,
    ) -> Result<Self, SkyError> {
        if net.output_dim() != n_categories || net.input_dim() != spec.input_splits * n_categories {
            return Err(SkyError::InvalidInput {
                what: "forecaster network shape does not match its spec",
            });
        }
        Ok(Self {
            net,
            spec,
            n_categories,
            val_mae,
        })
    }

    /// The underlying network (knowledge-base serialization).
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Featurization parameters.
    pub fn spec(&self) -> ForecastSpec {
        self.spec
    }

    /// Number of categories forecast.
    pub fn n_categories(&self) -> usize {
        self.n_categories
    }

    /// Forecast the next-interval category distribution from the most recent
    /// categories (one label per `seg_len`-second segment, oldest first).
    /// Only the last `t_in` is read — counted directly, O(`t_in / seg_len`),
    /// through the routine that built the training rows — and a shorter
    /// history pads by repetition.
    ///
    /// # Panics
    /// On a label `>= n_categories()`. Labels are range-checked where they
    /// enter the program ([`CategoryTimeline::new`], the session checkpoint
    /// decoder), not per forecast.
    pub fn forecast(&self, recent: &[usize], seg_len: f64) -> Vec<f64> {
        let input = featurize(recent, seg_len, &self.spec, self.n_categories);
        normalize(self.net.forward(&input))
    }

    /// Online fine-tuning (§3.3: "F can be fine-tuned in the online phase
    /// using the recently ingested data"). Runs a few low-learning-rate
    /// epochs on the recent timeline; returns the resulting training-tail
    /// MAE, or `None` when the timeline is too short to build a sample.
    pub fn fine_tune(
        &mut self,
        recent: &CategoryTimeline,
        epochs: usize,
        seed: u64,
    ) -> Option<f64> {
        let ds = ForecastDataset::build(recent, &self.spec);
        if ds.is_empty() {
            return None;
        }
        let mut opt = Adam::new(1e-3);
        self.net.fit(
            &ds.inputs,
            &ds.targets,
            &mut opt,
            &FitConfig {
                epochs,
                batch_size: 16,
                val_fraction: 0.0,
                loss: Loss::CrossEntropy,
                seed,
            },
        );
        let preds: Vec<Vec<f64>> = ds.inputs.iter().map(|x| self.net.forward(x)).collect();
        let mae = mean_absolute_error(&preds, &ds.targets);
        self.val_mae = mae;
        Some(mae)
    }

    /// Forecast MAE against ground truth on a held-out timeline.
    pub fn evaluate(&self, timeline: &CategoryTimeline) -> f64 {
        let ds = ForecastDataset::build(timeline, &self.spec);
        if ds.is_empty() {
            return f64::NAN;
        }
        let preds: Vec<Vec<f64>> = ds.inputs.iter().map(|x| self.net.forward(x)).collect();
        mean_absolute_error(&preds, &ds.targets)
    }
}

fn normalize(mut v: Vec<f64>) -> Vec<f64> {
    let s: f64 = v.iter().sum();
    if s > 0.0 {
        v.iter_mut().for_each(|x| *x /= s);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A timeline with strong diurnal structure: category 0 at "night",
    /// 1 at "day", plus noise-free transitions.
    fn diurnal_timeline(days: usize, seg_len: f64) -> CategoryTimeline {
        let per_day = (86_400.0 / seg_len) as usize;
        let mut cats = Vec::with_capacity(days * per_day);
        for d in 0..days {
            for s in 0..per_day {
                let hour = 24.0 * s as f64 / per_day as f64;
                let c = if (7.0..19.0).contains(&hour) { 1 } else { 0 };
                let _ = d;
                cats.push(c);
            }
        }
        CategoryTimeline::new(cats, seg_len, 2).expect("valid timeline")
    }

    fn spec(seg_len: f64) -> ForecastSpec {
        let _ = seg_len;
        ForecastSpec {
            input_secs: 86_400.0,
            input_splits: 4,
            horizon_secs: 43_200.0,
            sample_every_secs: 3_600.0,
        }
    }

    #[test]
    fn histograms_are_normalized_distributions() {
        let tl = diurnal_timeline(2, 60.0);
        let h = tl.histogram(0, tl.len());
        assert_eq!(h.len(), 2);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Day category covers 12 h of 24 h.
        assert!((h[1] - 0.5).abs() < 0.01);
    }

    #[test]
    fn histogram_counts_the_window() {
        let tl = CategoryTimeline::new(vec![0, 1, 1, 2, 0, 1], 1.0, 3).expect("valid timeline");
        let h = tl.histogram(1, 5);
        assert_eq!(h, vec![0.25, 0.5, 0.25]);
    }

    #[test]
    fn dataset_windows_do_not_leak() {
        let tl = diurnal_timeline(3, 60.0);
        let ds = ForecastDataset::build(&tl, &spec(60.0));
        assert!(!ds.is_empty());
        // Input dimension = splits × categories.
        assert_eq!(ds.inputs[0].len(), 4 * 2);
        for t in &ds.targets {
            assert!((t.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn forecaster_learns_diurnal_structure() {
        let tl = diurnal_timeline(6, 60.0);
        let f = Forecaster::train(&tl, spec(60.0), 30, 0.2, 1).expect("enough data");
        assert!(
            f.val_mae < 0.12,
            "diurnal pattern should be learnable; MAE {}",
            f.val_mae
        );
    }

    #[test]
    fn forecast_is_a_distribution() {
        let tl = diurnal_timeline(5, 60.0);
        let f = Forecaster::train(&tl, spec(60.0), 10, 0.2, 1).unwrap();
        let recent = diurnal_timeline(2, 60.0);
        let r = f.forecast(&recent.categories, recent.seg_len);
        assert_eq!(r.len(), 2);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(r.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn too_short_timeline_yields_none() {
        let tl = CategoryTimeline::new(vec![0, 1, 0], 60.0, 2).expect("valid timeline");
        assert!(Forecaster::train(&tl, spec(60.0), 5, 0.2, 1).is_none());
    }

    #[test]
    fn fine_tuning_adapts_to_a_shifted_distribution() {
        // Train on a 12 h-day / 12 h-night pattern, then fine-tune on data
        // whose "day" covers 18 h: the fine-tuned model must fit the new
        // distribution better than the stale one.
        let tl = diurnal_timeline(6, 60.0);
        let mut f = Forecaster::train(&tl, spec(60.0), 25, 0.2, 1).unwrap();
        let shifted = {
            let per_day = (86_400.0 / 60.0) as usize;
            let mut cats = Vec::new();
            for _ in 0..4 {
                for s in 0..per_day {
                    let hour = 24.0 * s as f64 / per_day as f64;
                    cats.push(usize::from((3.0..21.0).contains(&hour)));
                }
            }
            CategoryTimeline::new(cats, 60.0, 2).expect("valid timeline")
        };
        let before = f.evaluate(&shifted);
        let after = f.fine_tune(&shifted, 15, 2).expect("enough data");
        assert!(
            after < before,
            "fine-tuning must reduce MAE on the drifted data: {after} vs {before}"
        );
    }

    #[test]
    fn fine_tune_on_short_timeline_is_none() {
        let tl = diurnal_timeline(5, 60.0);
        let mut f = Forecaster::train(&tl, spec(60.0), 5, 0.2, 1).unwrap();
        let short = CategoryTimeline::new(vec![0, 1, 0, 1], 60.0, 2).expect("valid timeline");
        assert!(f.fine_tune(&short, 5, 1).is_none());
    }

    #[test]
    fn evaluate_reports_finite_mae_on_fresh_data() {
        let tl = diurnal_timeline(6, 60.0);
        let f = Forecaster::train(&tl, spec(60.0), 20, 0.2, 1).unwrap();
        let test = diurnal_timeline(3, 60.0);
        let mae = f.evaluate(&test);
        assert!(mae.is_finite());
        assert!(mae < 0.2, "MAE {mae}");
    }

    /// The featurization this module had before direct counting, kept as the
    /// oracle: a per-segment prefix-count table with its O(|C|) `histogram`,
    /// the window arithmetic `Forecaster::forecast` used to serve, and the
    /// separate copy `ForecastDataset::build` used to train.
    struct PrefixOracle {
        prefix: Vec<Vec<u32>>,
    }

    impl PrefixOracle {
        fn new(categories: &[usize], n_categories: usize) -> Self {
            let mut prefix = vec![vec![0u32; n_categories]];
            for (i, &c) in categories.iter().enumerate() {
                let mut row = prefix[i].clone();
                row[c] += 1;
                prefix.push(row);
            }
            Self { prefix }
        }

        fn len(&self) -> usize {
            self.prefix.len() - 1
        }

        fn histogram(&self, from: usize, to: usize) -> Vec<f64> {
            let to = to.min(self.len());
            let from = from.min(to);
            let n = (to - from).max(1) as f64;
            (self.prefix[to].iter().zip(&self.prefix[from]))
                .map(|(hi, lo)| (hi - lo) as f64 / n)
                .collect()
        }

        fn serve_input(&self, seg_len: f64, spec: &ForecastSpec) -> Vec<f64> {
            let in_segs = ((spec.input_secs / seg_len).round() as usize).max(spec.input_splits);
            let split = (in_segs / spec.input_splits).max(1);
            let len = self.len();
            let mut input = Vec::new();
            for s in 0..spec.input_splits {
                let from_back = in_segs - s * split;
                let to_back = from_back.saturating_sub(split);
                let from = len.saturating_sub(from_back);
                let to = len.saturating_sub(to_back).max(from + 1).min(len.max(1));
                input.extend(self.histogram(from.min(len), to.min(len)));
            }
            input
        }

        fn train_input(&self, t: usize, seg_len: f64, spec: &ForecastSpec) -> Vec<f64> {
            let in_segs = (spec.input_secs / seg_len).round() as usize;
            let split = (in_segs / spec.input_splits).max(1);
            let mut input = Vec::new();
            for s in 0..spec.input_splits {
                let from = t - in_segs + s * split;
                let to = (from + split).min(t);
                input.extend(self.histogram(from, to));
            }
            input
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const SEG_LEN: f64 = 2.0;

    /// A random featurization: `C` in 1..=6, splits in 1..=8, and an input
    /// span of 1..=40 segments — so spans shorter than the split count and
    /// spans not divisible by it both occur. Returns `(C, spec, in_segs)`.
    fn random_spec(rng: &mut StdRng) -> (usize, ForecastSpec, usize) {
        let in_segs = rng.gen_range(1..=40usize);
        let spec = ForecastSpec {
            input_secs: in_segs as f64 * SEG_LEN,
            input_splits: rng.gen_range(1..=8),
            horizon_secs: rng.gen_range(1..=10usize) as f64 * SEG_LEN,
            sample_every_secs: rng.gen_range(1..=7usize) as f64 * SEG_LEN,
        };
        (rng.gen_range(1..=6), spec, in_segs)
    }

    fn random_labels(rng: &mut StdRng, len: usize, n_c: usize) -> Vec<usize> {
        (0..len).map(|_| rng.gen_range(0..n_c)).collect()
    }

    #[test]
    fn featurize_matches_the_prefix_table_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(24);
        for case in 0..400 {
            let (n_c, spec, in_segs) = random_spec(&mut rng);
            // Every length class: empty, one label, fewer than the splits,
            // just under / at / over the input span, and far over it.
            let lens = [
                0,
                1,
                spec.input_splits - 1,
                in_segs - 1,
                in_segs,
                in_segs + 1,
                in_segs + rng.gen_range(2..200usize),
            ];
            let len = lens[case % lens.len()];
            let labels = random_labels(&mut rng, len, n_c);
            let oracle = PrefixOracle::new(&labels, n_c);
            assert_eq!(
                bits(&featurize(&labels, SEG_LEN, &spec, n_c)),
                bits(&oracle.serve_input(SEG_LEN, &spec)),
                "len {len}, C {n_c}, {spec:?}"
            );

            // The timeline's own window histogram, bounds past the end included.
            let tl = CategoryTimeline::new(labels, SEG_LEN, n_c).expect("labels in range");
            let (from, to) = (rng.gen_range(0..len + 3), rng.gen_range(0..len + 3));
            assert_eq!(
                bits(&tl.histogram(from, to)),
                bits(&oracle.histogram(from, to)),
                "histogram({from}, {to}) of {len}"
            );
        }
    }

    #[test]
    fn training_rows_are_the_served_features_of_their_prefix() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut rows = 0;
        for _ in 0..200 {
            let len = rng.gen_range(0..300usize);
            let (n_c, spec, in_segs) = random_spec(&mut rng);
            let labels = random_labels(&mut rng, len, n_c);
            let tl = CategoryTimeline::new(labels, SEG_LEN, n_c).expect("labels in range");
            let oracle = PrefixOracle::new(&tl.categories, n_c);
            let ds = ForecastDataset::build(&tl, &spec);
            let out_segs = (spec.horizon_secs / SEG_LEN).round() as usize;
            let stride = (spec.sample_every_secs / SEG_LEN).round() as usize;
            for (k, (row, target)) in ds.inputs.iter().zip(&ds.targets).enumerate() {
                let t = in_segs + k * stride;
                assert_eq!(
                    bits(row),
                    bits(&featurize(&tl.categories[..t], SEG_LEN, &spec, n_c)),
                    "row {k} of {spec:?}"
                );
                // Unchanged from the old training arithmetic wherever that
                // was well-formed (a span of at least one segment per split).
                if in_segs >= spec.input_splits {
                    assert_eq!(bits(row), bits(&oracle.train_input(t, SEG_LEN, &spec)));
                }
                assert_eq!(bits(target), bits(&oracle.histogram(t, t + out_segs)));
                rows += 1;
            }
            // One sample per stride while input + horizon still fit.
            assert_eq!(
                ds.len(),
                (len + stride).saturating_sub(in_segs + out_segs) / stride
            );
        }
        assert!(rows > 1_000, "the sweep must produce rows, got {rows}");
    }

    #[test]
    fn out_of_range_label_is_rejected_typed_where_it_enters() {
        // Counting indexes bins by label, so the range check that used to
        // fall out of building the prefix table must stay explicit.
        for labels in [vec![3], vec![0, 1, 2, 3, 0], vec![usize::MAX]] {
            assert!(matches!(
                CategoryTimeline::new(labels, SEG_LEN, 3),
                Err(SkyError::InvalidInput { .. })
            ));
        }
        assert!(CategoryTimeline::new(vec![0, 1, 2], SEG_LEN, 3).is_ok());
    }
}
