//! Bundled workload specifications for the experiment harnesses.
//!
//! A [`WorkloadSpec`] packages a workload with its data (labeled recording,
//! unlabeled recording, online segments) and its per-workload
//! hyperparameters (Appendix K.1: 3 content categories and 2 s switching for
//! COVID/MOT, 5 categories and 7 s switching for MOSEI).

use skyscraper::{SkyscraperConfig, Workload};
use vetl_video::{ContentParams, Recording, Segment, SyntheticCamera};

use crate::covid::CovidWorkload;
use crate::ev::EvWorkload;
use crate::mosei::{MoseiStreamGen, MoseiVariant, MoseiWorkload};
use crate::mot::MotWorkload;

/// The four evaluation workloads plus the EV example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperWorkload {
    /// COVID-19 safety measures (shopping street).
    Covid,
    /// Multi-object tracking (traffic intersection).
    Mot,
    /// Multimodal sentiment, short tall spikes.
    MoseiHigh,
    /// Multimodal sentiment, long plateau.
    MoseiLong,
    /// EV counting (introduction example).
    Ev,
}

impl PaperWorkload {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            PaperWorkload::Covid => "COVID",
            PaperWorkload::Mot => "MOT",
            PaperWorkload::MoseiHigh => "MOSEI-HIGH",
            PaperWorkload::MoseiLong => "MOSEI-LONG",
            PaperWorkload::Ev => "EV",
        }
    }
}

/// The §5.3 evaluation quartet.
pub fn paper_workloads() -> [PaperWorkload; 4] {
    [
        PaperWorkload::Covid,
        PaperWorkload::Mot,
        PaperWorkload::MoseiHigh,
        PaperWorkload::MoseiLong,
    ]
}

/// Data scale of a generated spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataScale {
    /// Scaled-down data for CI/benches: 2 unlabeled days, 1 online day,
    /// 6-hour planned intervals.
    Fast,
    /// The paper's scale: 16 unlabeled days, 8 online days (2 for MOSEI),
    /// 2-day planned intervals.
    Paper,
}

/// A workload bundled with its data and hyperparameters.
pub struct WorkloadSpec {
    /// Which paper workload this is.
    pub which: PaperWorkload,
    /// The workload object.
    pub workload: Box<dyn Workload>,
    /// Per-workload hyperparameters (Appendix K.1).
    pub hyper: SkyscraperConfig,
    /// Small labeled recording (~20 min).
    pub labeled: Recording,
    /// Large unlabeled recording.
    pub unlabeled: Recording,
    /// The online stream to ingest.
    pub online: Vec<Segment>,
}

impl WorkloadSpec {
    /// Build a spec with generated data.
    pub fn build(which: PaperWorkload, scale: DataScale, seed: u64) -> Self {
        Self::build_grown(which, scale, seed, 0.0).0
    }

    /// [`build`](Self::build), additionally returning an **extended**
    /// unlabeled recording: the same camera kept recording for another
    /// `growth` × the unlabeled duration after the first harvest, so the
    /// extension's prefix is bit-identical to `spec.unlabeled`. This is the
    /// input shape of a refit on grown data (fit on `spec.unlabeled`, refit
    /// on the extension).
    pub fn build_grown(
        which: PaperWorkload,
        scale: DataScale,
        seed: u64,
        growth: f64,
    ) -> (Self, Recording) {
        let day = 86_400.0;
        let (unlabeled_secs, online_secs, planned, splits) = match (which, scale) {
            (PaperWorkload::MoseiHigh | PaperWorkload::MoseiLong, DataScale::Paper) => {
                (10.0 * day, 2.0 * day, day, 8)
            }
            (_, DataScale::Paper) => (16.0 * day, 8.0 * day, 2.0 * day, 8),
            (_, DataScale::Fast) => (2.0 * day, 1.0 * day, 0.25 * day, 4),
        };
        let extra_secs = unlabeled_secs * growth.max(0.0);

        let (workload, labeled, unlabeled, extra, online): (
            Box<dyn Workload>,
            Recording,
            Recording,
            Recording,
            Vec<Segment>,
        ) = match which {
            PaperWorkload::Covid => {
                let mut cam = SyntheticCamera::new(ContentParams::shopping_street(seed), 2.0);
                let labeled = Recording::record(&mut cam, 20.0 * 60.0);
                let unlabeled = Recording::record(&mut cam, unlabeled_secs);
                let extra = if extra_secs > 0.0 {
                    Recording::record(&mut cam, extra_secs)
                } else {
                    Recording::default()
                };
                let online = Recording::record(&mut cam, online_secs).segments().to_vec();
                (
                    Box::new(CovidWorkload::new()),
                    labeled,
                    unlabeled,
                    extra,
                    online,
                )
            }
            PaperWorkload::Mot => {
                let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(seed), 2.0);
                let labeled = Recording::record(&mut cam, 20.0 * 60.0);
                let unlabeled = Recording::record(&mut cam, unlabeled_secs);
                let extra = if extra_secs > 0.0 {
                    Recording::record(&mut cam, extra_secs)
                } else {
                    Recording::default()
                };
                let online = Recording::record(&mut cam, online_secs).segments().to_vec();
                (
                    Box::new(MotWorkload::new()),
                    labeled,
                    unlabeled,
                    extra,
                    online,
                )
            }
            PaperWorkload::MoseiHigh | PaperWorkload::MoseiLong => {
                let variant = if which == PaperWorkload::MoseiHigh {
                    MoseiVariant::High
                } else {
                    MoseiVariant::Long
                };
                let mut gen = MoseiStreamGen::new(variant, seed);
                let labeled = gen.record(20.0 * 60.0);
                let unlabeled = gen.record(unlabeled_secs);
                let extra = if extra_secs > 0.0 {
                    gen.record(extra_secs)
                } else {
                    Recording::default()
                };
                let online = gen.record(online_secs).segments().to_vec();
                (
                    Box::new(MoseiWorkload::new(variant)),
                    labeled,
                    unlabeled,
                    extra,
                    online,
                )
            }
            PaperWorkload::Ev => {
                let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(seed), 2.0);
                let labeled = Recording::record(&mut cam, 20.0 * 60.0);
                let unlabeled = Recording::record(&mut cam, unlabeled_secs);
                let extra = if extra_secs > 0.0 {
                    Recording::record(&mut cam, extra_secs)
                } else {
                    Recording::default()
                };
                let online = Recording::record(&mut cam, online_secs).segments().to_vec();
                (
                    Box::new(EvWorkload::new()),
                    labeled,
                    unlabeled,
                    extra,
                    online,
                )
            }
        };

        let n_categories = match which {
            PaperWorkload::MoseiHigh | PaperWorkload::MoseiLong => 5,
            _ => 3,
        };
        let switch = match which {
            PaperWorkload::MoseiHigh | PaperWorkload::MoseiLong => 7.0,
            _ => 2.0,
        };
        let hyper = SkyscraperConfig {
            n_categories,
            switch_period_secs: switch,
            planned_interval_secs: planned,
            forecast_input_secs: planned,
            forecast_input_splits: splits,
            forecast_sample_every_secs: 15.0 * 60.0,
            seed,
            ..SkyscraperConfig::default()
        };

        let mut extended = unlabeled.segments().to_vec();
        extended.extend_from_slice(extra.segments());
        let extended = Recording::from_segments(extended);

        (
            Self {
                which,
                workload,
                hyper,
                labeled,
                unlabeled,
                online,
            },
            extended,
        )
    }

    /// Online stream duration in seconds.
    pub fn online_secs(&self) -> f64 {
        self.online.iter().map(|s| s.duration).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_specs_build_for_all_workloads() {
        for which in paper_workloads() {
            let spec = WorkloadSpec::build(which, DataScale::Fast, 7);
            assert!(!spec.labeled.is_empty(), "{which:?} labeled");
            assert!(
                spec.unlabeled.duration() >= 1.9 * 86_400.0,
                "{which:?} unlabeled"
            );
            assert!(spec.online_secs() >= 0.9 * 86_400.0, "{which:?} online");
            assert!(spec.workload.config_space().size() > 8);
        }
    }

    #[test]
    fn grown_spec_extends_the_unlabeled_prefix_bitwise() {
        let (spec, extended) =
            WorkloadSpec::build_grown(PaperWorkload::Mot, DataScale::Fast, 7, 0.25);
        assert!(extended.len() > spec.unlabeled.len());
        for (a, b) in spec.unlabeled.segments().iter().zip(extended.segments()) {
            assert_eq!(a.index, b.index);
            assert_eq!(
                a.content.time.as_secs().to_bits(),
                b.content.time.as_secs().to_bits()
            );
            assert_eq!(
                a.content.difficulty.to_bits(),
                b.content.difficulty.to_bits()
            );
            assert_eq!(a.bytes.to_bits(), b.bytes.to_bits());
        }
        // Zero growth degrades to the plain build.
        let (spec0, extended0) =
            WorkloadSpec::build_grown(PaperWorkload::Mot, DataScale::Fast, 7, 0.0);
        assert_eq!(extended0.len(), spec0.unlabeled.len());
    }

    #[test]
    fn mosei_uses_five_categories_and_seven_second_switching() {
        let spec = WorkloadSpec::build(PaperWorkload::MoseiHigh, DataScale::Fast, 7);
        assert_eq!(spec.hyper.n_categories, 5);
        assert_eq!(spec.hyper.switch_period_secs, 7.0);
        let spec = WorkloadSpec::build(PaperWorkload::Covid, DataScale::Fast, 7);
        assert_eq!(spec.hyper.n_categories, 3);
        assert_eq!(spec.hyper.switch_period_secs, 2.0);
    }

    #[test]
    fn online_continues_after_offline_data() {
        let spec = WorkloadSpec::build(PaperWorkload::Covid, DataScale::Fast, 7);
        let end_offline = spec.unlabeled.end().as_secs();
        let start_online = spec.online[0].start().as_secs();
        assert!((start_online - end_offline).abs() < 1e-6);
    }
}
