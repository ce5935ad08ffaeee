//! Knowledge-base persistence and refit guarantees.
//!
//! The two acceptance properties of the artifact pipeline:
//!
//! * **Round-trip**: `save → load` reproduces the original `FittedModel`
//!   bitwise, and an online run over the loaded model is bitwise identical
//!   to one over the freshly fitted model.
//! * **Refit**: refitting on unchanged recordings reuses every stage, and
//!   refitting on a recording extended by appended segments is bitwise
//!   identical to a cold full fit on the extended recording.

use std::path::PathBuf;

use vetl::prelude::*;
use vetl::skyscraper::offline::OfflinePipeline;
use vetl::skyscraper::testkit::{assert_outcomes_bitwise_equal, ToyWorkload};

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

#[test]
fn incremental_refit_equals_cold_fit_on_extended_recording() {
    let d = data();
    let w = ToyWorkload::new();
    let hw = HardwareSpec::with_cores(4);
    let hyper = SkyscraperConfig::fast_test();

    // Warm: fit the base recording, then refit the extension.
    let warm = OfflinePipeline::new(&w, hw, hyper.clone());
    let (base, _) = warm.run(&d.labeled, &d.unlabeled).expect("base fit");
    let (warm_arts, _) = warm
        .refit(&base, &d.labeled, &d.extended)
        .expect("warm refit");

    // Cold: fit the extension from scratch.
    let cold = OfflinePipeline::new(&w, hw, hyper);
    let (cold_arts, _) = cold.run(&d.labeled, &d.extended).expect("cold fit");

    assert_eq!(
        warm_arts.model().fingerprint(),
        cold_arts.model().fingerprint(),
        "refit must be bitwise identical to a cold fit"
    );

    // The equivalence also holds end-to-end through the online phase.
    let warm_out = IngestSession::batch(warm_arts.model(), &w, IngestOptions::default(), &d.online)
        .expect("warm online");
    let cold_out = IngestSession::batch(cold_arts.model(), &w, IngestOptions::default(), &d.online)
        .expect("cold online");
    assert_outcomes_bitwise_equal("warm refit == cold fit", &warm_out, &cold_out);
}

#[test]
fn kb_persisted_memo_survives_a_process_boundary() {
    let dir = tmpdir("memo");
    let d = data();

    // Process 1: fit the base recording, persist everything.
    {
        let mut sky = Skyscraper::new(ToyWorkload::new());
        sky.set_resources(4, 4_000.0, 1.0);
        sky.set_hyperparameters(SkyscraperConfig::fast_test());
        sky.fit(&d.labeled, &d.unlabeled).expect("fit");
        sky.save_model(&dir).expect("save");
    }

    // Process 2: load and refit on the grown recording.
    let mut sky = Skyscraper::new(ToyWorkload::new());
    sky.load_model(&dir).expect("load");
    sky.refit(&d.labeled, &d.extended).expect("refit");

    // Reference: cold fit of the extension.
    let mut cold = Skyscraper::new(ToyWorkload::new());
    cold.set_resources(4, 4_000.0, 1.0);
    cold.set_hyperparameters(SkyscraperConfig::fast_test());
    cold.fit(&d.labeled, &d.extended).expect("cold fit");
    assert_eq!(
        sky.model().unwrap().fingerprint(),
        cold.model().unwrap().fingerprint()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

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
    for file in [
        "model.kb",
        "profile.kb",
        "category.kb",
        "forecast.kb",
        "plan.kb",
    ] {
        let path = dir.join(file);
        if !path.exists() {
            continue;
        }
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
            let err = kb.load_model().err().or_else(|| kb.load_artifacts().err());
            match err {
                Some(
                    SkyError::CorruptKnowledgeBase { .. }
                    | SkyError::ArtifactVersionMismatch { .. }
                    | SkyError::KnowledgeBaseIo { .. },
                ) => {}
                Some(e) => panic!("{file}: unexpected error class: {e}"),
                // Mutating one artifact while loading another can succeed.
                None => {}
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
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
    let header = 24; // magic(5) + kind(1) + version(2) + len(8) + sum(8)
    for file in [
        "model.kb",
        "profile.kb",
        "category.kb",
        "forecast.kb",
        "plan.kb",
    ] {
        let path = dir.join(file);
        if !path.exists() {
            continue;
        }
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
            match file {
                "model.kb" => {
                    let _ = kb.load_model(); // Ok or typed Err — no panic
                }
                _ => {
                    let _ = kb.load_artifacts();
                }
            }
        }
        std::fs::write(&path, &pristine).expect("restore");
    }
    // The untouched knowledge base still loads after the storm.
    assert!(kb.load_model().is_ok());
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
    assert_eq!(
        report.stages_reused, 4,
        "unchanged inputs reuse every stage"
    );
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

    // Re-provision: every stage must recompute against the new hardware.
    sky.set_cores(8);
    let report = sky.refit(&d.labeled, &d.unlabeled).expect("refit");
    assert_eq!(
        report.stages_reused, 0,
        "stale artifacts must not be reused"
    );
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
    // computes, or to how a model is encoded, moves one of these numbers.
    // `profile.kb`, `category.kb` and `forecast.kb` embed wall-clock step
    // timings, so those three are pinned by artifact fingerprint only.
    // Re-pin only on purpose (a deliberate model or format change).
    const MODEL_KB: (usize, u64) = (62_768, 0x5aa8_0316_72a1_2bf6);
    const PLAN_KB: (usize, u64) = (62_971, 0xefc1_5ede_d6d9_1866);
    const PROFILE_FP: u64 = 0x7c49_b7fe_5fa8_7a68;
    const CATEGORY_FP: u64 = 0xec5c_7b3c_6a59_835d;
    const FORECAST_FP: u64 = 0x792d_bbb0_3f59_7d0c;
    const PLAN_FP: u64 = 0xd28c_0474_db26_6f9f;

    let dir = tmpdir("pinned");
    let d = data();
    let mut sky = Skyscraper::new(ToyWorkload::new());
    sky.set_resources(4, 4_000.0, 0.5);
    sky.set_hyperparameters(SkyscraperConfig::fast_test());
    sky.fit(&d.labeled, &d.unlabeled).expect("fit");
    sky.save_model(&dir).expect("save");

    let file = |name: &str| {
        let bytes = std::fs::read(dir.join(name)).expect("read");
        (bytes.len(), fnv1a(&bytes))
    };
    let arts = sky.artifacts().expect("fitted here");
    let got = (
        file("model.kb"),
        file("plan.kb"),
        arts.profile.fingerprint(),
        arts.category.fingerprint(),
        arts.forecast.fingerprint(),
        arts.plan.fingerprint(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        got,
        (
            MODEL_KB,
            PLAN_KB,
            PROFILE_FP,
            CATEGORY_FP,
            FORECAST_FP,
            PLAN_FP
        ),
        "knowledge-base pins moved: (model.kb, plan.kb, profile, category, \
         forecast, plan fingerprints) = {got:#x?}"
    );
}
