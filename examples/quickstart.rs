//! Quickstart: the EV-counting example from the paper's introduction and
//! Appendix F, now driven through the **staged offline pipeline**.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The offline phase (§3) is four artifacts, each independently runnable
//! and persistable:
//!
//! ```text
//! profile ──▶ categorize ──▶ forecast ──▶ plan
//! ```
//!
//! `Skyscraper::fit` wraps exactly this pipeline; here the stages run one
//! by one so their outputs are visible. The fitted model is saved to a
//! knowledge base at the end — see `examples/knowledge_base.rs` for
//! reloading it and refitting.

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

    // ---- The staged offline pipeline (§3). ----
    let pipeline = OfflinePipeline::new(&workload, hardware, hyper.clone());

    println!("stage 1/4: filter knob configurations + placements (App. A)…");
    let profile = pipeline
        .profile(&labeled, &unlabeled)
        .expect("profile stage");
    println!(
        "  kept {} configurations with {} Pareto placements",
        profile.configs.len(),
        profile
            .configs
            .iter()
            .map(|p| p.placements.len())
            .sum::<usize>()
    );

    println!("stage 2/4: categorize video dynamics (§3.2)…");
    let category = pipeline
        .categorize(&unlabeled, &profile)
        .expect("category stage");
    println!(
        "  {} content categories, discriminator = config #{}",
        category.categories.len(),
        category.discriminator
    );

    println!("stage 3/4: label data + train the forecaster (§3.3)…");
    let forecast = pipeline
        .forecast(&unlabeled, &profile, &category)
        .expect("forecast stage");
    println!(
        "  forecaster trained on {} samples (validation MAE {:.3})",
        forecast.n_train_samples, forecast.forecaster.val_mae
    );

    println!("stage 4/4: assemble the model + seed the first knob plan…");
    let plan = pipeline
        .plan(&profile, &category, &forecast)
        .expect("plan stage");
    println!(
        "  seeded plan covers {} categories × {} configurations",
        plan.seed_plan.n_categories(),
        plan.seed_plan.n_configs()
    );

    // Hand the fitted model to the facade and go live: ingest six hours.
    // (`sky.fit(&labeled, &unlabeled)` runs the identical pipeline in one
    // call; the staged form exists for persistence and refit.)
    let mut sky = Skyscraper::new(workload);
    sky.set_hardware(hardware);
    sky.set_hyperparameters(hyper);
    sky.set_cloud_budget_usd(1.0);
    sky.fit(&labeled, &unlabeled).expect("facade fit");
    assert_eq!(
        sky.model().unwrap().fingerprint(),
        plan.model.fingerprint(),
        "facade fit equals the staged pipeline bitwise"
    );

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

    // Persist everything for the next process — model and artifacts.
    let kb_dir = std::env::temp_dir().join("vetl-quickstart-kb");
    sky.save_model(&kb_dir).expect("save model");
    println!("model saved to {}", kb_dir.display());
}
