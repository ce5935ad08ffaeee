//! The on-disk knowledge base: one fitted model and what it was fitted from.
//!
//! ```text
//! <root>/
//!   model.kb   the FittedModel
//!   fit.kb     the FitStamp of the fit's inputs, the model's fingerprint and
//!              the fit's OfflineReport — present only when the saving
//!              process fitted the model itself
//! ```
//!
//! Nothing else in the directory is read: the `profile.kb`, `category.kb`,
//! `forecast.kb`, `plan.kb` and `memo.kb` that older versions wrote beside
//! these files are ignored, and a refit beside them fits cold.
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
use super::{FitStamp, FittedModel, OfflineReport};
use crate::error::SkyError;

const MAGIC: &[u8; 5] = b"SKYKB";

/// Artifact kind tag in the file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    // Tags 1–4 (the staged profile, category, forecast and plan artifacts)
    // and 6 (the evaluation memo) stay unused: old knowledge-base
    // directories still hold such files.
    Model = 5,
    Fit = 7,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Model => "model",
            Kind::Fit => "fit",
        }
    }

    fn file(self) -> &'static str {
        match self {
            Kind::Model => "model.kb",
            Kind::Fit => "fit.kb",
        }
    }
}

/// A directory-backed store of one fitted model. See the module docs.
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
    // Accessors.
    // ------------------------------------------------------------------

    /// Persist a fitted model (`model.kb`). A `fit.kb` that described the
    /// model being replaced is removed first, so a crash at any point
    /// leaves a directory that loads.
    pub fn save_model(&self, model: &FittedModel) -> Result<(), SkyError> {
        let fit = self.file(Kind::Fit);
        match fs::remove_file(&fit) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(SkyError::KnowledgeBaseIo {
                path: fit.display().to_string(),
                detail: e.to_string(),
            }),
            _ => self.write(Kind::Model, &codec::encode_model(model)),
        }
    }

    /// Load the fitted model (`model.kb`).
    pub fn load_model(&self) -> Result<FittedModel, SkyError> {
        self.decode(Kind::Model, codec::decode_model)
    }

    /// Record what `model` was fitted from (`fit.kb`): the stamp of its
    /// inputs and the fit's report. Call after [`Self::save_model`].
    pub fn save_fit(
        &self,
        model: &FittedModel,
        stamp: &FitStamp,
        report: &OfflineReport,
    ) -> Result<(), SkyError> {
        self.write(
            Kind::Fit,
            &codec::encode_fit(stamp, model.fingerprint(), report),
        )
    }

    /// What `model` was fitted from, when a `fit.kb` records it. A `fit.kb`
    /// written for another model is [`SkyError::CorruptKnowledgeBase`].
    pub fn load_fit(
        &self,
        model: &FittedModel,
    ) -> Result<Option<(FitStamp, OfflineReport)>, SkyError> {
        if !self.file(Kind::Fit).exists() {
            return Ok(None);
        }
        let (stamp, model_fp, report) = self.decode(Kind::Fit, codec::decode_fit)?;
        if model_fp != model.fingerprint() {
            return Err(SkyError::CorruptKnowledgeBase {
                detail: "model.kb does not match fit.kb (torn save?)".to_string(),
            });
        }
        Ok(Some((stamp, report)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkyscraperConfig;
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
    fn fit_roundtrip_is_bitwise_and_bound_to_its_model() {
        let dir = tmpdir("fit");
        let kb = KnowledgeBase::open(&dir).expect("open");
        let model = fit();
        kb.save_model(&model).expect("save model");
        assert!(kb.load_fit(&model).expect("no fit.kb").is_none());

        let stamp = FitStamp {
            workload_fp: 0x0123_4567_89ab_cdef,
            inputs_fp: u64::MAX,
        };
        let report = OfflineReport {
            filter_configs_secs: 0.25,
            filter_placements_secs: f64::MIN_POSITIVE,
            categorize_secs: -0.0,
            forecast_data_secs: 1e9,
            train_secs: 3.5,
            n_configs: 7,
            n_placements: 19,
            n_categories: 3,
            forecast_mae: f64::NAN,
            n_train_samples: 1234,
            n_workers: 4,
            reused: false,
        };
        kb.save_fit(&model, &stamp, &report).expect("save fit");
        let (got_stamp, got) = kb.load_fit(&model).expect("load fit").expect("fit.kb");
        assert_eq!(got_stamp, stamp);
        assert_eq!(format!("{got:?}"), format!("{report:?}"));
        assert_eq!(got.forecast_mae.to_bits(), report.forecast_mae.to_bits());
        assert_eq!(got.categorize_secs.to_bits(), (-0.0f64).to_bits());

        // A fit.kb describes exactly one model.
        let mut other = model.clone();
        other.residual_p99 += 1.0;
        assert!(matches!(
            kb.load_fit(&other).unwrap_err(),
            SkyError::CorruptKnowledgeBase { .. }
        ));
        // Saving a model retires the fit.kb of the one it replaces.
        kb.save_model(&other).expect("save other");
        assert!(kb.load_fit(&other).expect("no fit.kb").is_none());
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
        // Copy model.kb over fit.kb: kind tag mismatch.
        fs::copy(dir.join("model.kb"), dir.join("fit.kb")).unwrap();
        assert!(matches!(
            kb.load_fit(&model).unwrap_err(),
            SkyError::CorruptKnowledgeBase { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
