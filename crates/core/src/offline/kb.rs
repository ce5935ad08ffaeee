//! The on-disk knowledge base: persisted offline-phase artifacts.
//!
//! A knowledge base is a directory holding one file per artifact:
//!
//! ```text
//! <root>/
//!   profile.kb    stage 1 — filtered configurations + placement profiles
//!   category.kb   stage 2 — categories, ranks, discriminator
//!   forecast.kb   stage 3 — forecaster, bootstrap tail, drift calibration
//!   plan.kb       stage 4 — assembled FittedModel + seeded knob plan
//!   model.kb      the FittedModel alone (written by save_model)
//!   memo.kb       the cross-fit evaluation memo behind incremental refit
//! ```
//!
//! Every file is framed as
//!
//! ```text
//! magic "SKYKB" (5 bytes) · kind (u8) · version (u16 LE)
//! payload length (u64 LE) · FNV-1a checksum of payload (u64 LE) · payload
//! ```
//!
//! and decoded defensively: wrong magic/kind/checksum or a malformed payload
//! is [`SkyError::CorruptKnowledgeBase`], a future `version` is
//! [`SkyError::ArtifactVersionMismatch`], and filesystem failures are
//! [`SkyError::KnowledgeBaseIo`]. All numbers are little-endian and floats
//! travel as raw bits, so a saved model reloads **bitwise identically** on
//! any platform — `load → run` is indistinguishable from `fit → run`.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use super::codec;
use super::memo::EvalMemo;
use super::pipeline::OfflineArtifacts;
use super::FittedModel;
use crate::error::SkyError;

const MAGIC: &[u8; 5] = b"SKYKB";

/// Artifact kind tag in the file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Profile = 1,
    Category = 2,
    Forecast = 3,
    Plan = 4,
    Model = 5,
    Memo = 6,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Profile => "profile",
            Kind::Category => "category",
            Kind::Forecast => "forecast",
            Kind::Plan => "plan",
            Kind::Model => "model",
            Kind::Memo => "memo",
        }
    }

    fn file(self) -> &'static str {
        match self {
            Kind::Profile => "profile.kb",
            Kind::Category => "category.kb",
            Kind::Forecast => "forecast.kb",
            Kind::Plan => "plan.kb",
            Kind::Model => "model.kb",
            Kind::Memo => "memo.kb",
        }
    }
}

/// A directory-backed store of offline artifacts. See the module docs.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    root: PathBuf,
}

/// Replace `path` by `bytes` so that neither a crash nor a power cut tears
/// it: write the sibling `tmp`, fsync it, rename it over `path`, then fsync
/// the directory so the rename itself is on disk. On failure, returns the
/// path the failing step touched.
pub(crate) fn durable_replace(
    path: &Path,
    tmp: &Path,
    bytes: &[u8],
) -> Result<(), (PathBuf, std::io::Error)> {
    let at = |p: &Path| {
        let p = p.to_path_buf();
        move |e| (p, e)
    };
    let mut f = fs::File::create(tmp).map_err(at(tmp))?;
    f.write_all(bytes).map_err(at(tmp))?;
    f.sync_all().map_err(at(tmp))?;
    drop(f);
    fs::rename(tmp, path).map_err(at(path))?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(at(dir))
}

impl KnowledgeBase {
    /// Open (creating if necessary) a knowledge base at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SkyError> {
        let root = path.into();
        fs::create_dir_all(&root).map_err(|e| SkyError::KnowledgeBaseIo {
            path: root.display().to_string(),
            detail: e.to_string(),
        })?;
        Ok(Self { root })
    }

    /// Open an existing knowledge base without creating anything on disk —
    /// the read path. A missing directory is [`SkyError::KnowledgeBaseIo`].
    pub fn open_existing(path: impl Into<PathBuf>) -> Result<Self, SkyError> {
        let root = path.into();
        if !root.is_dir() {
            return Err(SkyError::KnowledgeBaseIo {
                path: root.display().to_string(),
                detail: "knowledge-base directory does not exist".to_string(),
            });
        }
        Ok(Self { root })
    }

    /// The backing directory.
    pub fn path(&self) -> &Path {
        &self.root
    }

    fn file(&self, kind: Kind) -> PathBuf {
        self.root.join(kind.file())
    }

    /// Does a persisted fitted model exist?
    pub fn has_model(&self) -> bool {
        self.file(Kind::Model).exists()
    }

    /// Do all four staged artifacts exist?
    pub fn has_artifacts(&self) -> bool {
        [Kind::Profile, Kind::Category, Kind::Forecast, Kind::Plan]
            .iter()
            .all(|&k| self.file(k).exists())
    }

    /// Does a persisted evaluation memo exist?
    pub fn has_memo(&self) -> bool {
        self.file(Kind::Memo).exists()
    }

    // ------------------------------------------------------------------
    // Framing.
    // ------------------------------------------------------------------

    fn write(&self, kind: Kind, payload: &[u8]) -> Result<(), SkyError> {
        let mut bytes = Vec::with_capacity(payload.len() + 24);
        bytes.extend_from_slice(MAGIC);
        bytes.push(kind as u8);
        bytes.extend_from_slice(&codec::FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&codec::checksum(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        // Write-then-rename so a crash mid-save never tears a previously
        // valid artifact: the file is either the old version or the new one.
        let path = self.file(kind);
        durable_replace(&path, &path.with_extension("kb.tmp"), &bytes).map_err(|(p, e)| {
            SkyError::KnowledgeBaseIo {
                path: p.display().to_string(),
                detail: e.to_string(),
            }
        })
    }

    fn read(&self, kind: Kind) -> Result<Vec<u8>, SkyError> {
        let path = self.file(kind);
        let bytes = fs::read(&path).map_err(|e| SkyError::KnowledgeBaseIo {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        let corrupt = |detail: String| SkyError::CorruptKnowledgeBase {
            detail: format!("{}: {detail}", path.display()),
        };
        if bytes.len() < 24 {
            return Err(corrupt("file shorter than the header".into()));
        }
        if &bytes[0..5] != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        if bytes[5] != kind as u8 {
            return Err(corrupt(format!(
                "expected a {} artifact, found kind tag {}",
                kind.name(),
                bytes[5]
            )));
        }
        let version = u16::from_le_bytes([bytes[6], bytes[7]]);
        if version != codec::FORMAT_VERSION {
            return Err(SkyError::ArtifactVersionMismatch {
                kind: kind.name(),
                found: version,
                supported: codec::FORMAT_VERSION,
            });
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let sum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let payload = &bytes[24..];
        if payload.len() != len {
            return Err(corrupt(format!(
                "payload is {} bytes, header claims {len}",
                payload.len()
            )));
        }
        if codec::checksum(payload) != sum {
            return Err(corrupt("checksum mismatch".into()));
        }
        Ok(payload.to_vec())
    }

    fn decode<T>(
        &self,
        kind: Kind,
        decode: impl FnOnce(&[u8]) -> codec::DecodeResult<T>,
    ) -> Result<T, SkyError> {
        let payload = self.read(kind)?;
        decode(&payload).map_err(|detail| SkyError::CorruptKnowledgeBase {
            detail: format!("{}: {detail}", self.file(kind).display()),
        })
    }

    // ------------------------------------------------------------------
    // Artifact accessors.
    // ------------------------------------------------------------------

    /// Persist all four staged artifacts (and nothing else).
    pub fn save_artifacts(&self, artifacts: &OfflineArtifacts) -> Result<(), SkyError> {
        self.write(Kind::Profile, &codec::encode_profile(&artifacts.profile))?;
        self.write(Kind::Category, &codec::encode_category(&artifacts.category))?;
        self.write(Kind::Forecast, &codec::encode_forecast(&artifacts.forecast))?;
        self.write(Kind::Plan, &codec::encode_plan_artifact(&artifacts.plan))
    }

    /// Load all four staged artifacts.
    pub fn load_artifacts(&self) -> Result<OfflineArtifacts, SkyError> {
        Ok(OfflineArtifacts {
            profile: self.decode(Kind::Profile, codec::decode_profile)?,
            category: self.decode(Kind::Category, codec::decode_category)?,
            forecast: self.decode(Kind::Forecast, codec::decode_forecast)?,
            plan: self.decode(Kind::Plan, codec::decode_plan_artifact)?,
        })
    }

    /// Persist a fitted model alone (`model.kb`).
    pub fn save_model(&self, model: &FittedModel) -> Result<(), SkyError> {
        self.write(Kind::Model, &codec::encode_model(model))
    }

    /// Load the fitted model (`model.kb`).
    pub fn load_model(&self) -> Result<FittedModel, SkyError> {
        self.decode(Kind::Model, codec::decode_model)
    }

    /// Persist the evaluation memo.
    pub fn save_memo(&self, memo: &EvalMemo) -> Result<(), SkyError> {
        self.write(Kind::Memo, &codec::encode_memo(memo))
    }

    /// Load the evaluation memo.
    pub fn load_memo(&self) -> Result<EvalMemo, SkyError> {
        self.decode(Kind::Memo, codec::decode_memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkyscraperConfig;
    use crate::offline::pipeline::OfflinePipeline;
    use crate::offline::run_offline;
    use crate::testkit::ToyWorkload;
    use vetl_sim::HardwareSpec;
    use vetl_video::{ContentParams, Recording, SyntheticCamera};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vetl-kb-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fit() -> FittedModel {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 43_200.0);
        run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(4),
            &SkyscraperConfig::fast_test(),
        )
        .expect("fit")
        .0
    }

    #[test]
    fn model_roundtrip_is_bitwise() {
        let dir = tmpdir("model");
        let kb = KnowledgeBase::open(&dir).expect("open");
        let model = fit();
        assert!(!kb.has_model());
        kb.save_model(&model).expect("save");
        assert!(kb.has_model());
        let loaded = kb.load_model().expect("load");
        assert_eq!(
            loaded.fingerprint(),
            model.fingerprint(),
            "reload must be bitwise identical"
        );
        assert_eq!(loaded.workload_name, model.workload_name);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_and_memo_roundtrip() {
        let dir = tmpdir("arts");
        let kb = KnowledgeBase::open(&dir).expect("open");
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 43_200.0);
        let mut pipeline = OfflinePipeline::new(
            &w,
            HardwareSpec::with_cores(4),
            SkyscraperConfig::fast_test(),
        );
        let (arts, _) = pipeline.run(&labeled, &unlabeled).expect("run");

        kb.save_artifacts(&arts).expect("save artifacts");
        kb.save_memo(pipeline.memo()).expect("save memo");
        assert!(kb.has_artifacts());
        assert!(kb.has_memo());

        let loaded = kb.load_artifacts().expect("load artifacts");
        assert_eq!(loaded.profile.fingerprint(), arts.profile.fingerprint());
        assert_eq!(loaded.category.fingerprint(), arts.category.fingerprint());
        assert_eq!(loaded.forecast.fingerprint(), arts.forecast.fingerprint());
        assert_eq!(loaded.plan.fingerprint(), arts.plan.fingerprint());
        assert_eq!(
            loaded.plan.model.fingerprint(),
            arts.plan.model.fingerprint()
        );

        let memo = kb.load_memo().expect("load memo");
        assert_eq!(memo.len(), pipeline.memo().len());
        assert_eq!(memo.scope(), pipeline.memo().scope());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_and_version_skew_are_typed_errors() {
        let dir = tmpdir("corrupt");
        let kb = KnowledgeBase::open(&dir).expect("open");
        let model = fit();
        kb.save_model(&model).expect("save");
        let path = dir.join("model.kb");

        // Flip one payload byte: checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            kb.load_model().unwrap_err(),
            SkyError::CorruptKnowledgeBase { .. }
        ));

        // Future version: typed mismatch.
        let mut bytes = fs::read(&path).unwrap();
        bytes[last] ^= 0xFF; // restore payload
        bytes[6] = 0xFF;
        bytes[7] = 0xFF;
        fs::write(&path, &bytes).unwrap();
        match kb.load_model().unwrap_err() {
            SkyError::ArtifactVersionMismatch {
                kind,
                found,
                supported,
            } => {
                assert_eq!(kind, "model");
                assert_eq!(found, u16::MAX);
                assert_eq!(supported, codec::FORMAT_VERSION);
            }
            e => panic!("expected version mismatch, got {e}"),
        }

        // Bad magic.
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            kb.load_model().unwrap_err(),
            SkyError::CorruptKnowledgeBase { .. }
        ));

        // Truncated file.
        fs::write(&path, [1, 2, 3]).unwrap();
        assert!(matches!(
            kb.load_model().unwrap_err(),
            SkyError::CorruptKnowledgeBase { .. }
        ));

        // Missing file is an I/O error.
        fs::remove_file(&path).unwrap();
        assert!(matches!(
            kb.load_model().unwrap_err(),
            SkyError::KnowledgeBaseIo { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn semantically_corrupt_models_are_rejected_not_panicked() {
        let dir = tmpdir("semantic");
        let kb = KnowledgeBase::open(&dir).expect("open");
        let model = fit();

        let mut bad = model.clone();
        bad.discriminator = 999;
        kb.save_model(&bad).expect("save");
        assert!(matches!(
            kb.load_model().unwrap_err(),
            SkyError::CorruptKnowledgeBase { .. }
        ));

        let mut bad = model.clone();
        bad.quality_rank = vec![0; bad.n_configs()];
        kb.save_model(&bad).expect("save");
        assert!(matches!(
            kb.load_model().unwrap_err(),
            SkyError::CorruptKnowledgeBase { .. }
        ));

        let mut bad = model.clone();
        bad.configs[0].placements.clear();
        kb.save_model(&bad).expect("save");
        assert!(matches!(
            kb.load_model().unwrap_err(),
            SkyError::CorruptKnowledgeBase { .. }
        ));

        // The untampered model still loads.
        kb.save_model(&model).expect("save");
        assert!(kb.load_model().is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_existing_does_not_create_directories() {
        let dir = tmpdir("ro");
        assert!(matches!(
            KnowledgeBase::open_existing(&dir).unwrap_err(),
            SkyError::KnowledgeBaseIo { .. }
        ));
        assert!(!dir.exists(), "the read path must not create directories");
    }

    #[test]
    fn wrong_kind_in_right_file_is_rejected() {
        let dir = tmpdir("kind");
        let kb = KnowledgeBase::open(&dir).expect("open");
        let model = fit();
        kb.save_model(&model).expect("save");
        // Copy model.kb over profile.kb: kind tag mismatch.
        fs::copy(dir.join("model.kb"), dir.join("profile.kb")).unwrap();
        assert!(matches!(
            kb.load_artifacts().unwrap_err(),
            SkyError::CorruptKnowledgeBase { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
