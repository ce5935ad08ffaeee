//! `vetl_top` — a terminal dashboard over the runtime's observability
//! attachment, in the spirit of `top(1)`.
//!
//! ```text
//! cargo run --release --example vetl_top
//! ```
//!
//! Three camera streams are fed through a sharded [`IngestRuntime`] with
//! an [`Obs`] attachment; between chunks the dashboard redraws from the
//! two exposition surfaces — [`RuntimeMetrics`] for per-stream state and
//! the registry snapshot for counters and latency histograms. The frame
//! loop is bounded so the example terminates in CI; on an interactive
//! terminal the ANSI home+clear sequence makes it animate in place.

use std::sync::Arc;

use vetl::prelude::*;
use vetl::skyscraper::offline::run_offline;
use vetl::workloads::MotWorkload;

/// 120-segment planning epochs at 2 s segments.
const REPLAN_SECS: f64 = 240.0;
const CAMERAS: usize = 3;
const SEGS_PER_CAMERA: usize = 600;
const CHUNK: usize = 60;

fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "█".repeat(filled), "░".repeat(width - filled))
}

fn draw(frame: usize, frames: usize, m: &RuntimeMetrics, snap: &MetricsSnapshot) {
    // Home + clear-to-end redraws in place on a real terminal and is
    // harmless noise in captured CI logs.
    print!("\x1b[H\x1b[J");
    println!(
        "vetl top — frame {}/{}  shards {}  epoch {}  plans {}  {:.0} segs/s",
        frame + 1,
        frames,
        m.shards,
        m.epoch,
        m.joint_plans,
        m.segs_per_sec,
    );
    println!(
        "wallet ${:.3} left   {} segments processed   lag {} segment(s)",
        m.wallet_left_usd,
        m.segments_processed,
        m.total_lag(),
    );
    println!();
    println!("  STREAM        STATE    SEGS    LAG  SPENT$   BUFFER");
    for s in &m.streams {
        println!(
            "  {:<12}  {:<7}  {:>5}  {:>5}  {:>6.3}  {}",
            s.workload_id,
            if s.active { "active" } else { "settled" },
            s.segments_processed,
            s.lag_segments,
            s.cloud_spent_usd,
            bar(s.buffer_bytes / 4e9, 12),
        );
    }
    println!();
    println!("  LATENCY (µs)          N       MEAN     P50≥     P99≥");
    for name in [
        "session_push",
        "mailbox_drain",
        "batch_dispatch",
        "barrier_lp_solve_cold",
        "wal_append",
    ] {
        if let Some(h) = snap.histogram(name) {
            if h.count > 0 {
                println!(
                    "  {:<20}  {:>5}  {:>9.1}  {:>7.1}  {:>7.1}",
                    name,
                    h.count,
                    h.mean_ns() / 1e3,
                    h.quantile_ns(0.5) as f64 / 1e3,
                    h.quantile_ns(0.99) as f64 / 1e3,
                );
            }
        }
    }
    let barriers = snap.counter("epoch_barriers").unwrap_or(0);
    let solves = snap.counter("lp_solves_cold").unwrap_or(0);
    println!();
    println!("  barriers {barriers}  lp solves {solves}");
}

fn main() {
    let mot = MotWorkload::new();
    let hyper = SkyscraperConfig {
        n_categories: 3,
        planned_interval_secs: 4.0 * 3_600.0,
        forecast_input_secs: 4.0 * 3_600.0,
        forecast_input_splits: 4,
        ..SkyscraperConfig::default()
    };
    let hardware = HardwareSpec::with_cores(16).with_buffer(4e9);

    println!("fitting MOT @ traffic intersection…");
    let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(41), 2.0);
    let labeled = Recording::record(&mut cam, 20.0 * 60.0);
    let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
    let (model, _) = run_offline(&mot, &labeled, &unlabeled, hardware, &hyper).expect("fit");

    let feeds: Vec<Vec<Segment>> = (0..CAMERAS as u64)
        .map(|v| {
            let mut c = SyntheticCamera::new(ContentParams::traffic_intersection(50 + v), 2.0);
            Recording::record(&mut c, 2.0 * SEGS_PER_CAMERA as f64)
                .segments()
                .to_vec()
        })
        .collect();

    let obs = Arc::new(Obs::new());
    let mut rt = IngestRuntime::new(RuntimeConfig {
        shards: 0, // VETL_SHARDS override or one per detected core
        shared_cloud_budget_usd: 1.0,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(16.0),
        seed: 77,
        obs: Some(obs.clone()),
        ..RuntimeConfig::default()
    });
    let ids: Vec<StreamId> = (0..CAMERAS)
        .map(|v| {
            rt.open_stream(
                format!("cam-{v:02}"),
                &model,
                &mot,
                IngestOptions::default(),
            )
            .expect("admission")
        })
        .collect();

    let frames = SEGS_PER_CAMERA / CHUNK;
    for frame in 0..frames {
        let at = frame * CHUNK;
        for (v, id) in ids.iter().enumerate() {
            rt.push_batch(*id, &feeds[v][at..at + CHUNK]).expect("push");
        }
        draw(frame, frames, &rt.metrics(), &obs.registry.snapshot());
    }
    for id in &ids {
        rt.close_stream(*id).expect("close");
    }
    let out = rt.finish().expect("finish");
    println!();
    println!(
        "settled: joint quality {:.3}, ${:.3} cloud, {} flight events traced",
        out.joint_quality,
        out.cloud_usd,
        obs.flight.recorded(),
    );
}
