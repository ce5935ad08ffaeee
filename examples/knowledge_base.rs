//! Knowledge-base persistence and refit.
//!
//! ```text
//! cargo run --release --example knowledge_base
//! ```
//!
//! The offline phase is the expensive half of Skyscraper (1.6 h in the
//! paper). This example shows the three ways the knowledge base avoids
//! paying it repeatedly:
//!
//! 1. **fit → save**: one process fits and persists the model and the stamp
//!    of its inputs to a directory.
//! 2. **load → serve**: a "restarted server" loads the model and opens
//!    ingest sessions immediately — no offline prep at all — and produces
//!    bitwise-identical results.
//! 3. **refit**: reuse if nothing changed, else a cold fit. A refit on
//!    unchanged data keeps the model and runs nothing; a refit on a grown
//!    recording is bitwise identical to a cold fit on it.

use std::time::Instant;

use vetl::prelude::*;

fn main() {
    let kb_dir = std::env::temp_dir().join("vetl-example-kb");
    let _ = std::fs::remove_dir_all(&kb_dir);

    let hyper = SkyscraperConfig {
        n_categories: 3,
        planned_interval_secs: 6.0 * 3_600.0,
        forecast_input_secs: 6.0 * 3_600.0,
        forecast_input_splits: 6,
        ..SkyscraperConfig::default()
    };

    // Historical data: 20 labeled minutes, one unlabeled day — plus the
    // stream keeps being recorded, so we also materialize the grown
    // recording a later refit will see (same prefix, 6 more hours).
    let mut camera = SyntheticCamera::new(ContentParams::traffic_intersection(7), 2.0);
    let labeled = Recording::record(&mut camera, 20.0 * 60.0);
    let unlabeled = Recording::record(&mut camera, 86_400.0);
    let grown = {
        let extra = Recording::record(&mut camera, 6.0 * 3_600.0);
        let mut segs = unlabeled.segments().to_vec();
        segs.extend_from_slice(extra.segments());
        Recording::from_segments(segs)
    };
    let live = Recording::record(&mut camera, 2.0 * 3_600.0);

    // ---- 1. fit → save. ----
    let mut sky = Skyscraper::new(EvWorkload::new());
    sky.set_resources(4, 4_000.0, 1.0);
    sky.set_hyperparameters(hyper.clone());
    let t0 = Instant::now();
    let report = sky.fit(&labeled, &unlabeled).expect("offline fit");
    println!(
        "fit: {} configs, {} categories in {:.2}s",
        report.n_configs,
        report.n_categories,
        t0.elapsed().as_secs_f64()
    );
    sky.save_model(&kb_dir).expect("save");
    println!("saved model + fit stamp to {}", kb_dir.display());
    let reference = sky.ingest(live.segments()).expect("reference run");

    // ---- 2. load → serve (a fresh process after a restart). ----
    let mut restarted = Skyscraper::new(EvWorkload::new());
    let t0 = Instant::now();
    restarted.load_model(&kb_dir).expect("load");
    println!(
        "restart: model loaded in {:.3}s — offline prep skipped entirely",
        t0.elapsed().as_secs_f64()
    );
    assert_eq!(
        restarted.model().unwrap().fingerprint(),
        sky.model().unwrap().fingerprint(),
        "reloaded model is bitwise identical"
    );

    // open_session resumes serving immediately, without refitting…
    let mut session = restarted.open_session().expect("session on loaded model");
    for seg in live.segments() {
        session.push(seg).expect("push");
    }
    let outcome = session.finish();
    println!(
        "served {} segments at {:.1}% mean quality, {} overflows",
        outcome.segments,
        100.0 * outcome.mean_quality,
        outcome.overflows
    );
    // …and behaves exactly like the fitting process did (same model bits,
    // same decisions; the batch wrapper pins clairvoyant stream stats, so
    // compare against the same session-style run).
    let mut ref_session = sky.open_session().expect("session on fitted model");
    for seg in live.segments() {
        ref_session.push(seg).expect("push");
    }
    let ref_outcome = ref_session.finish();
    assert_eq!(
        outcome.mean_quality.to_bits(),
        ref_outcome.mean_quality.to_bits()
    );
    assert_eq!(outcome.switches, ref_outcome.switches);
    let _ = reference;

    // ---- 3. refit: reuse when nothing changed, else a cold fit. ----
    let same = restarted
        .refit(&labeled, &unlabeled)
        .expect("refit on unchanged data");
    assert!(same.reused, "unchanged inputs keep the fit");
    println!("refit on unchanged data: fit reused, nothing ran");

    let t0 = Instant::now();
    let grown_report = restarted
        .refit(&labeled, &grown)
        .expect("refit on grown data");
    assert!(!grown_report.reused, "grown data is a cold fit");
    println!(
        "refit on +6h of data: {:.2}s, a cold fit",
        t0.elapsed().as_secs_f64()
    );

    // The refit result is bitwise identical to fitting the grown recording
    // from scratch.
    let mut cold = Skyscraper::new(EvWorkload::new());
    cold.set_resources(4, 4_000.0, 1.0);
    cold.set_hyperparameters(hyper);
    cold.fit(&labeled, &grown).expect("cold fit on grown data");
    assert_eq!(
        restarted.model().unwrap().fingerprint(),
        cold.model().unwrap().fingerprint(),
        "refit == cold fit, bitwise"
    );
    println!("cold fit on the same grown data: identical model");

    let _ = std::fs::remove_dir_all(&kb_dir);
}
