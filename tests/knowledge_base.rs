//! Knowledge-base persistence and refit guarantees.
//!
//! The two acceptance properties of the offline phase's persistence:
//!
//! * **Round-trip**: `save → load` reproduces the original `FittedModel`
//!   bitwise, and an online run over the loaded model is bitwise identical
//!   to one over the freshly fitted model.
//! * **Refit**: refitting on unchanged recordings keeps the fit, and
//!   refitting on a recording extended by appended segments is bitwise
//!   identical to a cold full fit on the extended recording.

use std::path::{Path, PathBuf};

use vetl::prelude::*;
use vetl::skyscraper::testkit::{assert_outcomes_bitwise_equal, ToyWorkload};
use vetl::skyscraper::{FitStamp, OfflineReport};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vetl-kbtest-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Data {
    labeled: Recording,
    unlabeled: Recording,
    extended: Recording,
    online: Vec<Segment>,
}

fn data() -> Data {
    let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
    let labeled = Recording::record(&mut cam, 20.0 * 60.0);
    let unlabeled = Recording::record(&mut cam, 43_200.0);
    let extra = Recording::record(&mut cam, 21_600.0);
    let mut segs = unlabeled.segments().to_vec();
    segs.extend_from_slice(extra.segments());
    let extended = Recording::from_segments(segs);
    let online = Recording::record(&mut cam, 3_600.0).segments().to_vec();
    Data {
        labeled,
        unlabeled,
        extended,
        online,
    }
}

#[test]
fn save_load_online_run_is_bitwise_identical_to_fit_run() {
    let dir = tmpdir("roundtrip");
    let d = data();

    let mut sky = Skyscraper::new(ToyWorkload::new());
    sky.set_resources(4, 4_000.0, 0.5);
    sky.set_hyperparameters(SkyscraperConfig::fast_test());
    sky.fit(&d.labeled, &d.unlabeled).expect("fit");
    sky.save_model(&dir).expect("save");

    let mut loaded = Skyscraper::new(ToyWorkload::new());
    loaded.set_cloud_budget_usd(0.5);
    loaded.load_model(&dir).expect("load");

    // The model itself reloads bitwise.
    assert_eq!(
        loaded.model().unwrap().fingerprint(),
        sky.model().unwrap().fingerprint()
    );

    // And drives the online phase identically.
    let fresh = sky.ingest(&d.online).expect("ingest fitted");
    let replay = loaded.ingest(&d.online).expect("ingest loaded");
    assert_outcomes_bitwise_equal("load == fit", &fresh, &replay);

    let _ = std::fs::remove_dir_all(&dir);
}

fn toy_sky(cores: usize) -> Skyscraper<ToyWorkload> {
    let mut sky = Skyscraper::new(ToyWorkload::new());
    sky.set_resources(cores, 4_000.0, 1.0);
    sky.set_hyperparameters(SkyscraperConfig::fast_test());
    sky
}

#[test]
fn incremental_refit_equals_cold_fit_on_extended_recording() {
    let d = data();
    let w = ToyWorkload::new();

    // Warm: fit the base recording, then refit the extension.
    let mut warm = toy_sky(4);
    warm.fit(&d.labeled, &d.unlabeled).expect("base fit");
    let report = warm.refit(&d.labeled, &d.extended).expect("warm refit");
    assert!(!report.reused, "grown data is a cold fit");

    // Cold: fit the extension from scratch.
    let mut cold = toy_sky(4);
    cold.fit(&d.labeled, &d.extended).expect("cold fit");

    let (warm_model, cold_model) = (warm.model().unwrap(), cold.model().unwrap());
    assert_eq!(
        warm_model.fingerprint(),
        cold_model.fingerprint(),
        "refit must be bitwise identical to a cold fit"
    );
    assert_eq!(warm.fit_stamp(), cold.fit_stamp());

    // The equivalence also holds end-to-end through the online phase.
    let warm_out = IngestSession::batch(warm_model, &w, IngestOptions::default(), &d.online)
        .expect("warm online");
    let cold_out = IngestSession::batch(cold_model, &w, IngestOptions::default(), &d.online)
        .expect("cold online");
    assert_outcomes_bitwise_equal("warm refit == cold fit", &warm_out, &cold_out);
}

#[test]
fn kb_persisted_memo_survives_a_process_boundary() {
    let dir = tmpdir("memo");
    let d = data();

    // Process 1: fit the base recording, persist everything.
    let fitted = {
        let mut sky = toy_sky(4);
        let report = sky.fit(&d.labeled, &d.unlabeled).expect("fit");
        sky.save_model(&dir).expect("save");
        report
    };

    // Process 2: load; a refit on the same recordings keeps the fit and
    // reports it exactly as the fitting process did.
    let mut sky = Skyscraper::new(ToyWorkload::new());
    sky.load_model(&dir).expect("load");
    let kept = sky.refit(&d.labeled, &d.unlabeled).expect("refit");
    assert!(kept.reused);
    assert_eq!(
        OfflineReport {
            reused: false,
            ..kept
        },
        fitted,
        "fit.kb carries the fit's report across the process boundary"
    );

    // A refit on the grown recording fits cold.
    let grown = sky.refit(&d.labeled, &d.extended).expect("refit");
    assert!(!grown.reused);

    // Reference: cold fit of the extension.
    let mut cold = toy_sky(4);
    cold.fit(&d.labeled, &d.extended).expect("cold fit");
    assert_eq!(
        sky.model().unwrap().fingerprint(),
        cold.model().unwrap().fingerprint()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file a knowledge-base directory holds after a save by a process
/// that fitted its model. The mutation corpora run over each of them.
const KB_FILES: [&str; 2] = ["model.kb", "fit.kb"];

#[test]
fn mutated_kb_files_fail_typed_never_panic() {
    // Robustness corpus: random bit flips, truncations, and zeroed ranges
    // over every artifact file must surface as typed errors — never a
    // panic, never an unbounded allocation. Seeded via VETL_CHAOS_SEED so
    // a failing draw replays exactly.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let seed = std::env::var("VETL_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE);
    let dir = tmpdir("fuzz");
    let d = data();
    let mut sky = Skyscraper::new(ToyWorkload::new());
    sky.set_resources(4, 4_000.0, 0.5);
    sky.set_hyperparameters(SkyscraperConfig::fast_test());
    sky.fit(&d.labeled, &d.unlabeled).expect("fit");
    sky.save_model(&dir).expect("save");

    let kb = KnowledgeBase::open_existing(&dir).expect("open");
    let mut rng = StdRng::seed_from_u64(seed);
    for file in KB_FILES {
        let path = dir.join(file);
        assert!(path.exists(), "{file} is in the corpus but was not saved");
        let pristine = std::fs::read(&path).expect("read");
        for _ in 0..40 {
            let mut mutated = pristine.clone();
            match rng.gen_range(0..3u8) {
                0 => {
                    let i = rng.gen_range(0..mutated.len());
                    mutated[i] ^= 1 << rng.gen_range(0..8u8);
                }
                1 => mutated.truncate(rng.gen_range(0..mutated.len())),
                2 => {
                    let start = rng.gen_range(0..mutated.len());
                    let end = (start + rng.gen_range(1..128usize)).min(mutated.len());
                    mutated[start..end].iter_mut().for_each(|b| *b = 0xFF);
                }
                _ => unreachable!(),
            }
            std::fs::write(&path, &mutated).expect("write");
            // Framing (magic/version/length/checksum) catches every raw
            // file mutation; the error class must be a typed SkyError.
            match kb.load_model().and_then(|m| kb.load_fit(&m)) {
                Err(
                    SkyError::CorruptKnowledgeBase { .. }
                    | SkyError::ArtifactVersionMismatch { .. }
                    | SkyError::KnowledgeBaseIo { .. },
                ) => {}
                Err(e) => panic!("{file}: unexpected error class: {e}"),
                // Only a mutation that changed nothing (0xFF over 0xFF) loads.
                Ok(_) => assert!(mutated == pristine, "{file}: a mutated file loaded"),
            }
        }
        std::fs::write(&path, &pristine).expect("restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutated_payloads_with_valid_checksums_fail_typed_never_panic() {
    // The deeper corpus: mutate the *payload* and re-stamp a valid
    // checksum, so the mutation reaches the artifact decoders themselves
    // (length-prefix validation, shape cross-checks, semantic model
    // validation) instead of being caught by the frame. Decoding may
    // legitimately succeed when a float payload bit flips — but it must
    // never panic, and whatever loads must pass the semantic validators.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use vetl::skyscraper::offline::codec::checksum;
    let seed = std::env::var("VETL_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE);
    let dir = tmpdir("payload-fuzz");
    let d = data();
    let mut sky = Skyscraper::new(ToyWorkload::new());
    sky.set_resources(4, 4_000.0, 0.5);
    sky.set_hyperparameters(SkyscraperConfig::fast_test());
    sky.fit(&d.labeled, &d.unlabeled).expect("fit");
    sky.save_model(&dir).expect("save");

    let kb = KnowledgeBase::open_existing(&dir).expect("open");
    let model = sky.model().unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
    let header = 24; // magic(5) + kind(1) + version(2) + len(8) + sum(8)
    for file in KB_FILES {
        let path = dir.join(file);
        assert!(path.exists(), "{file} is in the corpus but was not saved");
        let pristine = std::fs::read(&path).expect("read");
        assert!(pristine.len() > header);
        for _ in 0..80 {
            let mut mutated = pristine.clone();
            match rng.gen_range(0..3u8) {
                0 => {
                    let i = rng.gen_range(header..mutated.len());
                    mutated[i] ^= 1 << rng.gen_range(0..8u8);
                }
                1 => {
                    // Truncate the payload and fix the length field too.
                    let keep = rng.gen_range(0..(mutated.len() - header));
                    mutated.truncate(header + keep);
                    mutated[8..16].copy_from_slice(&(keep as u64).to_le_bytes());
                }
                2 => {
                    let i = rng.gen_range(header..mutated.len());
                    let end = (i + rng.gen_range(1..64usize)).min(mutated.len());
                    for b in &mut mutated[i..end] {
                        *b = rng.gen_range(0..=255u8);
                    }
                }
                _ => unreachable!(),
            }
            let sum = checksum(&mutated[header..]);
            mutated[16..24].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &mutated).expect("write");
            // Ok or typed Err — no panic.
            match file {
                "model.kb" => {
                    let _ = kb.load_model();
                }
                _ => {
                    let _ = kb.load_fit(model);
                }
            }
        }
        std::fs::write(&path, &pristine).expect("restore");
    }
    // The untouched knowledge base still loads after the storm.
    assert!(kb.load_model().is_ok());
    assert!(kb.load_fit(model).expect("fit.kb").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_memo_kb_beside_a_good_model_is_ignored() {
    // Older versions wrote an evaluation memo (`memo.kb`, kind tag 6) next
    // to the model. Whatever such a file holds, it must not make a good
    // knowledge base unloadable or change the model.
    let dir = tmpdir("stale-memo");
    let d = data();
    let mut sky = Skyscraper::new(ToyWorkload::new());
    sky.set_resources(4, 4_000.0, 0.5);
    sky.set_hyperparameters(SkyscraperConfig::fast_test());
    sky.fit(&d.labeled, &d.unlabeled).expect("fit");
    sky.save_model(&dir).expect("save");
    let fitted = sky.model().unwrap().fingerprint();
    std::fs::write(dir.join("memo.kb"), b"SKYKB\x06 not a memo").expect("write garbage");

    let mut loaded = Skyscraper::new(ToyWorkload::new());
    loaded
        .load_model(&dir)
        .expect("a bad memo.kb must not block the model");
    assert_eq!(loaded.model().unwrap().fingerprint(), fitted);
    let report = loaded
        .refit(&d.labeled, &d.unlabeled)
        .expect("refit beside a bad memo.kb");
    assert!(report.reused, "unchanged inputs keep the fit");
    assert_eq!(loaded.model().unwrap().fingerprint(), fitted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hardware_change_invalidates_artifacts_but_still_fits() {
    let d = data();
    let mut sky = Skyscraper::new(ToyWorkload::new());
    sky.set_resources(4, 4_000.0, 1.0);
    sky.set_hyperparameters(SkyscraperConfig::fast_test());
    sky.fit(&d.labeled, &d.unlabeled).expect("fit");
    let before = sky.model().unwrap().fingerprint();

    // Re-provision: the fit must recompute against the new hardware.
    sky.set_cores(8);
    let report = sky.refit(&d.labeled, &d.unlabeled).expect("refit");
    assert!(!report.reused, "a stale fit must not be reused");
    assert_ne!(
        sky.model().unwrap().fingerprint(),
        before,
        "placement profiles depend on the cluster size"
    );

    // And it matches a cold fit on the new hardware bitwise.
    let mut cold = Skyscraper::new(ToyWorkload::new());
    cold.set_resources(8, 4_000.0, 1.0);
    cold.set_hyperparameters(SkyscraperConfig::fast_test());
    cold.fit(&d.labeled, &d.unlabeled).expect("cold fit");
    assert_eq!(
        sky.model().unwrap().fingerprint(),
        cold.model().unwrap().fingerprint()
    );
}

/// Byte-level FNV-1a (64-bit), independent of the codec's own checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn kb_bytes_are_pinned() {
    // The knowledge-base fixture: any change to what the offline phase
    // computes, or to how a model is encoded, moves `MODEL_KB`; any change
    // to what a fit stamp covers moves `STAMP`. `fit.kb` embeds wall-clock
    // step timings, so it is pinned through the stamp only. Re-pin only on
    // purpose (a deliberate model or format change).
    const MODEL_KB: (usize, u64) = (62_768, 0x5aa8_0316_72a1_2bf6);
    const STAMP: FitStamp = FitStamp {
        workload_fp: 0x6e12_21a7_0f68_fe8e,
        inputs_fp: 0x1933_e8da_fa6d_bfbb,
    };

    let dir = tmpdir("pinned");
    let d = data();
    let mut sky = Skyscraper::new(ToyWorkload::new());
    sky.set_resources(4, 4_000.0, 0.5);
    sky.set_hyperparameters(SkyscraperConfig::fast_test());
    sky.fit(&d.labeled, &d.unlabeled).expect("fit");
    sky.save_model(&dir).expect("save");

    let bytes = std::fs::read(dir.join("model.kb")).expect("read");
    let got = (
        (bytes.len(), fnv1a(&bytes)),
        sky.fit_stamp().expect("fitted here"),
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        got,
        (MODEL_KB, STAMP),
        "knowledge-base pins moved: (model.kb, fit stamp) = {got:#x?}"
    );
}

/// Write `bytes` as a framed knowledge-base file of kind `tag`.
fn write_framed(path: &Path, tag: u8, payload: &[u8]) {
    let mut bytes = b"SKYKB".to_vec();
    bytes.push(tag);
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&vetl::skyscraper::offline::codec::checksum(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    std::fs::write(path, bytes).expect("write");
}

#[test]
fn old_layout_with_staged_artifacts_loads_and_refits_cold() {
    // Older versions saved four staged artifacts (kind tags 1–4) beside
    // `model.kb` and no `fit.kb`. Such a directory still loads; nothing
    // says what the model was fitted from, so a refit fits cold.
    let dir = tmpdir("old-layout");
    let d = data();
    let mut sky = toy_sky(4);
    sky.fit(&d.labeled, &d.unlabeled).expect("fit");
    sky.save_model(&dir).expect("save");
    let fitted = sky.model().unwrap().fingerprint();
    std::fs::remove_file(dir.join("fit.kb")).expect("old layouts had no fit.kb");
    for (tag, file) in ["profile.kb", "category.kb", "forecast.kb", "plan.kb"]
        .iter()
        .enumerate()
    {
        write_framed(&dir.join(file), tag as u8 + 1, b"an old staged artifact");
    }

    let mut loaded = Skyscraper::new(ToyWorkload::new());
    loaded.load_model(&dir).expect("an old layout loads");
    assert_eq!(loaded.model().unwrap().fingerprint(), fitted);
    assert_eq!(loaded.fit_stamp(), None);
    let report = loaded.refit(&d.labeled, &d.unlabeled).expect("refit");
    assert!(!report.reused, "no fit.kb: a cold fit");
    assert_eq!(loaded.model().unwrap().fingerprint(), fitted);
    assert_eq!(loaded.fit_stamp(), sky.fit_stamp());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_load_leaves_the_instance_unchanged() {
    // A directory whose fit.kb belongs to another model (a torn or mixed
    // save) is refused — and the refusal must not install the rejected
    // directory's hardware or hyperparameters beside the old model.
    let (dir_a, dir_b) = (tmpdir("torn-a"), tmpdir("torn-b"));
    let d = data();
    let mut a = toy_sky(4);
    a.fit(&d.labeled, &d.unlabeled).expect("fit a");
    a.save_model(&dir_a).expect("save a");
    let mut b = toy_sky(6);
    b.fit(&d.labeled, &d.unlabeled).expect("fit b");
    b.save_model(&dir_b).expect("save b");
    std::fs::copy(dir_b.join("fit.kb"), dir_a.join("fit.kb")).expect("mix");

    let mut sky = toy_sky(8);
    sky.fit(&d.labeled, &d.unlabeled).expect("fit");
    let (hardware, model, stamp) = (
        *sky.hardware(),
        sky.model().unwrap().fingerprint(),
        sky.fit_stamp(),
    );
    let err = sky.load_model(&dir_a).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, SkyError::CorruptKnowledgeBase { .. }),
        "{err}"
    );
    assert_eq!(*sky.hardware(), hardware, "hardware untouched");
    assert_eq!(sky.model().unwrap().fingerprint(), model, "model untouched");
    assert_eq!(sky.fit_stamp(), stamp, "fit stamp untouched");
    let report = sky.refit(&d.labeled, &d.unlabeled).expect("refit");
    assert!(
        report.reused,
        "hyperparameters untouched: the fit is current"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn saving_a_bare_model_over_another_fit_leaves_a_loadable_directory() {
    // An instance that loaded a bare model.kb knows nothing of how its
    // model was fitted. Saving it into a directory that holds another
    // fit's model.kb + fit.kb must not leave that fit.kb behind.
    let (dir, bare) = (tmpdir("over"), tmpdir("bare"));
    let d = data();
    let mut first = toy_sky(4);
    first.fit(&d.labeled, &d.unlabeled).expect("fit");
    first.save_model(&dir).expect("save");

    let mut second = toy_sky(6);
    second.fit(&d.labeled, &d.unlabeled).expect("fit");
    KnowledgeBase::open(&bare)
        .expect("open")
        .save_model(second.model().unwrap())
        .expect("save bare model");
    let mut carrier = Skyscraper::new(ToyWorkload::new());
    carrier.load_model(&bare).expect("load bare");
    assert_eq!(carrier.fit_stamp(), None);
    carrier.save_model(&dir).expect("save over the first fit");

    let mut loaded = Skyscraper::new(ToyWorkload::new());
    loaded
        .load_model(&dir)
        .expect("the directory describes one fit");
    assert_eq!(
        loaded.model().unwrap().fingerprint(),
        second.model().unwrap().fingerprint()
    );
    assert_eq!(loaded.fit_stamp(), None, "the first fit's fit.kb is gone");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&bare);
}
