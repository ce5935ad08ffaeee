//! User-facing facade mirroring the paper's Python API (Appendix F).
//!
//! The paper's example:
//!
//! ```python
//! sky = Skyscraper(aws_key_id, aws_secret_key, fps=30)
//! sky.set_resources(num_cores=8, bufferMB=4000, cloud_budget=1000)
//! sky.register_knob("det_interval", [1, 5, 10])
//! sky.fit(labeled_video, labels, unlabeled_video, proc_frame)
//! while ok: status, state = sky.process(frame, state)
//! ```
//!
//! In this Rust reproduction the knobs and the processing DAG live in the
//! [`Workload`] implementation (the equivalent of `proc_frame` plus the
//! `register_knob` calls), and processing operates at segment granularity —
//! the unit at which Skyscraper makes decisions anyway. The
//! `while ok: sky.process(frame, state)` loop maps onto
//! [`Skyscraper::open_session`] + [`IngestSession::push`]: the session *is*
//! the paper's carried `state`, made explicit (and checkpointable).
//! [`Skyscraper::ingest`] remains as the one-shot convenience over a whole
//! pre-materialized recording.
//!
//! Resource builders are composable and idempotent: each setter touches
//! only the field it names, so `set_cores` after `set_hardware` preserves a
//! custom buffer size or cloud pricing, and calling any setter twice is the
//! same as calling it once.

use std::path::Path;

use vetl_sim::{CostModel, HardwareSpec};
use vetl_video::{Recording, Segment};

use crate::config::SkyscraperConfig;
use crate::error::SkyError;
use crate::offline::{
    EvalMemo, FittedModel, KnowledgeBase, OfflineArtifacts, OfflinePipeline, OfflineReport,
};
use crate::online::session::{IngestOptions, IngestOutcome, IngestSession};
use crate::workload::Workload;

/// The Skyscraper system facade.
pub struct Skyscraper<W: Workload> {
    workload: W,
    hardware: HardwareSpec,
    hyper: SkyscraperConfig,
    options: IngestOptions,
    model: Option<FittedModel>,
    /// Staged artifacts of the last fit (fuel for [`Self::refit`] and
    /// [`Self::save_model`]); absent after [`Self::load_model`] of a bare
    /// model file.
    artifacts: Option<OfflineArtifacts>,
    /// Cross-fit evaluation memo carried between fits.
    memo: EvalMemo,
}

impl<W: Workload> Skyscraper<W> {
    /// Instantiate Skyscraper for a workload (the `Skyscraper(...)`
    /// constructor of Appendix F; cloud credentials are implicit in the
    /// simulated cloud).
    pub fn new(workload: W) -> Self {
        Self {
            workload,
            hardware: HardwareSpec::with_cores(8),
            hyper: SkyscraperConfig::default(),
            options: IngestOptions::default(),
            model: None,
            artifacts: None,
            memo: EvalMemo::new(),
        }
    }

    /// `sky.set_resources(num_cores=…, bufferMB=…, cloud_budget=…)`.
    ///
    /// Equivalent to [`set_cores`](Self::set_cores) +
    /// [`set_buffer_mb`](Self::set_buffer_mb) +
    /// [`set_cloud_budget_usd`](Self::set_cloud_budget_usd); every other
    /// provisioning field (cloud pricing, core speed, …) is left untouched.
    pub fn set_resources(
        &mut self,
        num_cores: usize,
        buffer_mb: f64,
        cloud_budget_usd: f64,
    ) -> &mut Self {
        self.set_cores(num_cores)
            .set_buffer_mb(buffer_mb)
            .set_cloud_budget_usd(cloud_budget_usd)
    }

    /// Resize the on-premise cluster without touching buffer or cloud.
    pub fn set_cores(&mut self, num_cores: usize) -> &mut Self {
        self.hardware.cluster.cores = num_cores;
        self
    }

    /// Resize the video buffer without touching cluster or cloud.
    pub fn set_buffer_mb(&mut self, buffer_mb: f64) -> &mut Self {
        self.hardware.buffer_bytes = buffer_mb * 1e6;
        self
    }

    /// Set the per-interval cloud budget without touching the hardware.
    pub fn set_cloud_budget_usd(&mut self, cloud_budget_usd: f64) -> &mut Self {
        self.options.cloud_budget_usd = cloud_budget_usd;
        self
    }

    /// Install a full provisioning spec (custom cloud pricing, core speed).
    /// Later granular setters compose on top of it.
    pub fn set_hardware(&mut self, hardware: HardwareSpec) -> &mut Self {
        self.hardware = hardware;
        self
    }

    /// The current provisioning.
    pub fn hardware(&self) -> &HardwareSpec {
        &self.hardware
    }

    /// Override hyperparameters (Appendix I tuning).
    pub fn set_hyperparameters(&mut self, hyper: SkyscraperConfig) -> &mut Self {
        self.hyper = hyper;
        self
    }

    /// Override ingestion options (ablation gates, cost model, seeds).
    /// Preserves the cloud budget configured through
    /// [`set_resources`](Self::set_resources) /
    /// [`set_cloud_budget_usd`](Self::set_cloud_budget_usd) — pass a
    /// non-default budget in `options` to change it here instead.
    pub fn set_options(&mut self, options: IngestOptions) -> &mut Self {
        let configured_budget = self.options.cloud_budget_usd;
        let default_budget = IngestOptions::default().cloud_budget_usd;
        self.options = options;
        if self.options.cloud_budget_usd == default_budget {
            self.options.cloud_budget_usd = configured_budget;
        }
        self
    }

    /// Cost model used for budget conversions.
    pub fn cost_model(&self) -> &CostModel {
        &self.options.cost_model
    }

    /// The configured ingestion options (ablation gates, budget, cost
    /// model, seed) — e.g. to admit this instance's fitted workload into a
    /// [`crate::runtime::IngestRuntime`] with the same settings a plain
    /// [`Self::open_session`] would use.
    pub fn ingest_options(&self) -> &IngestOptions {
        &self.options
    }

    /// The workload being ingested.
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// `sky.fit(labeled_video, labels, unlabeled_video, proc_frame)` — run
    /// the offline preparation phase (§3). A thin wrapper over the staged
    /// [`OfflinePipeline`]: the artifacts and the evaluation memo are kept
    /// for [`Self::refit`] and [`Self::save_model`].
    pub fn fit(
        &mut self,
        labeled: &Recording,
        unlabeled: &Recording,
    ) -> Result<OfflineReport, SkyError> {
        let mut pipeline = OfflinePipeline::new(&self.workload, self.hardware, self.hyper.clone())
            .with_memo(std::mem::take(&mut self.memo));
        let result = pipeline.run(labeled, unlabeled);
        self.memo = pipeline.into_memo();
        let (artifacts, report) = result?;
        self.model = Some(artifacts.model().clone());
        self.artifacts = Some(artifacts);
        Ok(report)
    }

    /// Incrementally refit on (typically grown) recordings: pipeline stages
    /// whose inputs are unchanged are reused, and recomputed stages replay
    /// memoized evaluations from the previous fit — the resulting model is
    /// bitwise identical to a cold [`Self::fit`] on the same data, only
    /// faster. Falls back to a full fit when nothing was fitted yet or the
    /// knob space, hardware, or hyperparameters changed.
    pub fn refit(
        &mut self,
        labeled: &Recording,
        unlabeled: &Recording,
    ) -> Result<OfflineReport, SkyError> {
        let Some(prev) = self.artifacts.take() else {
            return self.fit(labeled, unlabeled);
        };
        let mut pipeline = OfflinePipeline::new(&self.workload, self.hardware, self.hyper.clone())
            .with_memo(std::mem::take(&mut self.memo));
        let result = pipeline.refit(&prev, labeled, unlabeled);
        self.memo = pipeline.into_memo();
        match result {
            Ok((artifacts, report)) => {
                self.model = Some(artifacts.model().clone());
                self.artifacts = Some(artifacts);
                Ok(report)
            }
            Err(e) => {
                // The previous fit is still valid — keep it so a corrected
                // retry can refit incrementally instead of cold.
                self.artifacts = Some(prev);
                Err(e)
            }
        }
    }

    /// Persist the fitted state to a [`KnowledgeBase`] directory: always
    /// the model itself, plus — when this instance fitted it — the staged
    /// artifacts and the evaluation memo, so a later process can both skip
    /// offline prep entirely ([`Self::load_model`]) and refit
    /// incrementally.
    pub fn save_model(&self, path: impl AsRef<Path>) -> Result<(), SkyError> {
        let model = self.model()?;
        let kb = KnowledgeBase::open(path.as_ref())?;
        kb.save_model(model)?;
        if let Some(artifacts) = &self.artifacts {
            kb.save_artifacts(artifacts)?;
            kb.save_memo(&self.memo)?;
        }
        Ok(())
    }

    /// Load a previously saved model from a [`KnowledgeBase`] directory,
    /// skipping offline preparation entirely. The stored hardware spec and
    /// hyperparameters travel with the model and are installed on this
    /// instance so sessions behave exactly as they would have on the
    /// fitting process. Staged artifacts and the memo are picked up too
    /// when present, re-arming incremental [`Self::refit`].
    pub fn load_model(&mut self, path: impl AsRef<Path>) -> Result<&mut Self, SkyError> {
        let kb = KnowledgeBase::open_existing(path.as_ref())?;
        let model = kb.load_model()?;
        if model.workload_name != self.workload.name() {
            return Err(SkyError::StaleArtifact {
                what: "persisted model belongs to a different workload",
            });
        }
        let knobs = self.workload.knobs();
        let in_knob_space = |c: &crate::knob::KnobConfig| {
            c.len() == knobs.len()
                && c.indices()
                    .iter()
                    .zip(knobs)
                    .all(|(&i, k)| i < k.cardinality())
        };
        if !model.configs.iter().all(|p| in_knob_space(&p.config)) {
            return Err(SkyError::StaleArtifact {
                what: "persisted configurations fall outside this workload's knob space",
            });
        }
        self.hardware = model.hardware;
        self.hyper = model.hyper.clone();
        self.artifacts = if kb.has_artifacts() {
            let artifacts = kb.load_artifacts()?;
            if artifacts.profile.meta.workload_fp != self.workload.fingerprint() {
                return Err(SkyError::StaleArtifact {
                    what: "persisted artifacts were fitted on a different workload \
                           (name matches, knob registry or semantics changed)",
                });
            }
            if artifacts.plan.model.fingerprint() != model.fingerprint() {
                return Err(SkyError::CorruptKnowledgeBase {
                    detail: "model.kb does not match the persisted plan artifact \
                             (torn save?)"
                        .to_string(),
                });
            }
            Some(artifacts)
        } else {
            None
        };
        self.memo = if kb.has_memo() {
            kb.load_memo()?
        } else {
            EvalMemo::new()
        };
        self.model = Some(model);
        Ok(self)
    }

    /// The fitted model (after [`Self::fit`] / [`Self::load_model`]).
    pub fn model(&self) -> Result<&FittedModel, SkyError> {
        self.model.as_ref().ok_or(SkyError::NotFitted)
    }

    /// The staged artifacts of the last fit, when available.
    pub fn artifacts(&self) -> Option<&OfflineArtifacts> {
        self.artifacts.as_ref()
    }

    /// Open a streaming ingestion session — the paper's
    /// `while ok: sky.process(frame, state)` loop with the carried state
    /// made explicit. Push segments as they arrive; the session replans
    /// every planned interval and can be checkpointed and resumed.
    pub fn open_session(&self) -> Result<IngestSession<'_, W>, SkyError> {
        let model = self.model()?;
        Ok(IngestSession::new(
            model,
            &self.workload,
            self.options.clone(),
        ))
    }

    /// Ingest a pre-materialized stream of segments online (§4): a thin
    /// one-loop wrapper over a session ([`IngestSession::batch`]).
    pub fn ingest(&self, segments: &[Segment]) -> Result<IngestOutcome, SkyError> {
        let model = self.model()?;
        IngestSession::batch(model, &self.workload, self.options.clone(), segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ToyWorkload;
    use vetl_video::{ContentParams, SyntheticCamera};

    #[test]
    fn facade_runs_the_paper_flow() {
        // Appendix F flow: instantiate → set_resources → fit → process.
        let mut sky = Skyscraper::new(ToyWorkload::new());
        sky.set_resources(4, 4000.0, 1.0);
        sky.set_hyperparameters(SkyscraperConfig::fast_test());

        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let report = sky.fit(&labeled, &unlabeled).expect("fit succeeds");
        assert!(report.n_configs >= 2);

        let online = Recording::record(&mut cam, 3_600.0);
        let out = sky.ingest(online.segments()).expect("ingestion succeeds");
        assert_eq!(out.overflows, 0);
        assert!(out.mean_quality > 0.0);

        // The same stream through an explicit session.
        let mut session = sky.open_session().expect("session opens");
        for seg in online.segments() {
            session.push(seg).expect("push succeeds");
        }
        let streamed = session.finish();
        assert_eq!(streamed.segments, out.segments);
        assert_eq!(streamed.overflows, 0);
    }

    #[test]
    fn save_load_skips_offline_prep_and_rearms_refit() {
        let dir = std::env::temp_dir().join(format!(
            "vetl-api-kb-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 43_200.0);
        let online = Recording::record(&mut cam, 1_800.0);

        let mut sky = Skyscraper::new(ToyWorkload::new());
        sky.set_resources(4, 4000.0, 1.0);
        sky.set_hyperparameters(SkyscraperConfig::fast_test());
        sky.fit(&labeled, &unlabeled).expect("fit");
        sky.save_model(&dir).expect("save");
        let fitted_out = sky.ingest(online.segments()).expect("ingest");

        // A fresh process: load instead of fitting.
        let mut sky2 = Skyscraper::new(ToyWorkload::new());
        sky2.load_model(&dir).expect("load");
        assert_eq!(
            sky2.model().unwrap().fingerprint(),
            sky.model().unwrap().fingerprint(),
            "loaded model must be bitwise identical"
        );
        assert!(
            sky2.artifacts().is_some(),
            "artifacts travel with the model"
        );
        let loaded_out = sky2.ingest(online.segments()).expect("ingest on loaded");
        assert_eq!(
            loaded_out.mean_quality.to_bits(),
            fitted_out.mean_quality.to_bits()
        );
        assert_eq!(loaded_out.segments, fitted_out.segments);

        // Refit on the same data reuses everything.
        let report = sky2.refit(&labeled, &unlabeled).expect("refit");
        assert_eq!(report.stages_reused, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refit_without_prior_fit_is_a_full_fit() {
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 43_200.0);
        let mut sky = Skyscraper::new(ToyWorkload::new());
        sky.set_resources(4, 4000.0, 1.0);
        sky.set_hyperparameters(SkyscraperConfig::fast_test());
        let report = sky.refit(&labeled, &unlabeled).expect("refit-as-fit");
        assert_eq!(report.stages_reused, 0);
        assert!(sky.model().is_ok());
    }

    #[test]
    fn save_before_fit_errors_and_load_of_missing_kb_errors() {
        let sky = Skyscraper::new(ToyWorkload::new());
        assert_eq!(
            sky.save_model(std::env::temp_dir().join("vetl-api-nofit"))
                .unwrap_err(),
            SkyError::NotFitted
        );
        let dir = std::env::temp_dir().join(format!("vetl-api-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sky = Skyscraper::new(ToyWorkload::new());
        let err = sky.load_model(&dir).map(|_| ()).unwrap_err();
        assert!(matches!(err, SkyError::KnowledgeBaseIo { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_before_fit_errors() {
        let sky = Skyscraper::new(ToyWorkload::new());
        let err = sky.ingest(&[]).unwrap_err();
        assert_eq!(err, SkyError::NotFitted);
        assert!(sky.open_session().is_err());
    }

    #[test]
    fn resource_builders_compose_and_stay_idempotent() {
        let mut sky = Skyscraper::new(ToyWorkload::new());

        // A custom provisioning: non-default cloud pricing and buffer.
        let mut custom = HardwareSpec::with_cores(16).with_buffer(2.5e9);
        custom.cloud.usd_per_compute_sec = 9.9e-5;
        custom.cluster.core_speed = 2.0;
        sky.set_hardware(custom);

        // Granular setters must not clobber unrelated fields…
        sky.set_cores(4);
        assert_eq!(sky.hardware().cluster.cores, 4);
        assert_eq!(
            sky.hardware().buffer_bytes,
            2.5e9,
            "buffer survives set_cores"
        );
        assert_eq!(sky.hardware().cloud.usd_per_compute_sec, 9.9e-5);
        assert_eq!(sky.hardware().cluster.core_speed, 2.0);

        // …and neither must the combined setter.
        sky.set_resources(8, 4000.0, 0.7);
        assert_eq!(sky.hardware().cluster.cores, 8);
        assert_eq!(sky.hardware().buffer_bytes, 4e9);
        assert_eq!(
            sky.hardware().cloud.usd_per_compute_sec,
            9.9e-5,
            "custom cloud pricing survives set_resources"
        );
        assert_eq!(sky.hardware().cluster.core_speed, 2.0);

        // Idempotent: calling twice changes nothing.
        let before = *sky.hardware();
        sky.set_resources(8, 4000.0, 0.7);
        assert_eq!(*sky.hardware(), before);
    }

    #[test]
    fn set_options_preserves_a_configured_cloud_budget() {
        let mut sky = Skyscraper::new(ToyWorkload::new());
        sky.set_resources(4, 4000.0, 0.25);
        // Ablation gates off, budget untouched (left at its default in the
        // passed options).
        sky.set_options(IngestOptions {
            enable_buffering: false,
            ..Default::default()
        });
        assert_eq!(sky.options.cloud_budget_usd, 0.25);
        assert!(!sky.options.enable_buffering);
        // An explicit budget in the options wins.
        sky.set_options(IngestOptions {
            cloud_budget_usd: 0.5,
            ..Default::default()
        });
        assert_eq!(sky.options.cloud_budget_usd, 0.5);
    }
}
