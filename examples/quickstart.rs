//! Quickstart: the EV-counting example from the paper's introduction and
//! Appendix F — fit once, then ingest.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! `Skyscraper::fit` runs the offline phase (§3) — filter knob
//! configurations and placements, categorize video dynamics, train the
//! forecaster — and its report says what each step produced. The fitted
//! model is saved to a knowledge base at the end — see
//! `examples/knowledge_base.rs` for reloading it and refitting.

use vetl::prelude::*;

fn main() {
    // The EV workload: YOLO detector + KCF tracker with two knobs
    // (det_interval ∈ {10,5,1}, yolo_size ∈ {small,medium,large}).
    let workload = EvWorkload::new();
    let hardware = HardwareSpec::with_cores(4); // 4 cores, 4 GB buffer, default cloud
    let hyper = SkyscraperConfig {
        n_categories: 3,
        planned_interval_secs: 6.0 * 3_600.0,
        forecast_input_secs: 6.0 * 3_600.0,
        forecast_input_splits: 6,
        ..SkyscraperConfig::default()
    };

    // Record historical data from the camera that will be ingested live:
    // 20 labeled minutes plus two unlabeled days (§3).
    let mut camera = SyntheticCamera::new(ContentParams::traffic_intersection(7), 2.0);
    let labeled = Recording::record(&mut camera, 20.0 * 60.0);
    let unlabeled = Recording::record(&mut camera, 2.0 * 86_400.0);

    // ---- The offline phase (§3), one fit. ----
    let mut sky = Skyscraper::new(workload);
    sky.set_hardware(hardware);
    sky.set_hyperparameters(hyper);
    sky.set_cloud_budget_usd(1.0);
    println!("fitting the offline phase (§3, App. A)…");
    let report = sky.fit(&labeled, &unlabeled).expect("offline fit");
    println!(
        "  kept {} configurations with {} Pareto placements",
        report.n_configs, report.n_placements
    );
    let model = sky.model().expect("fitted");
    println!(
        "  {} content categories, discriminator = config #{}",
        report.n_categories, model.discriminator
    );
    println!(
        "  forecaster trained on {} samples (validation MAE {:.3})",
        report.n_train_samples, report.forecast_mae
    );
    println!("  offline phase took {:.2}s", report.total_secs());

    // Go live: ingest six hours.
    println!("ingesting 6 hours of live video (§4)…");
    let live = Recording::record(&mut camera, 6.0 * 3_600.0);
    let out = sky.ingest(live.segments()).expect("online ingestion");

    println!("  segments processed : {}", out.segments);
    println!(
        "  mean result quality: {:.1}% of best",
        100.0 * out.mean_quality
    );
    println!("  knob switches      : {}", out.switches);
    println!(
        "  work performed     : {:.0} core-seconds",
        out.work_core_secs
    );
    println!("  cloud spend        : ${:.3}", out.cloud_usd);
    println!("  peak buffer fill   : {:.1} MB", out.buffer_peak / 1e6);
    println!(
        "  buffer overflows   : {} (the throughput guarantee, Eq. 1)",
        out.overflows
    );
    assert_eq!(out.overflows, 0);

    // Persist the fit for the next process — the model and its stamp.
    let kb_dir = std::env::temp_dir().join("vetl-quickstart-kb");
    sky.save_model(&kb_dir).expect("save model");
    println!("model saved to {}", kb_dir.display());
}
