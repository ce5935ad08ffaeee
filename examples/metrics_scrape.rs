//! Wire-level metrics exposition: scraping the full observability
//! registry off a serving runtime and rendering it as Prometheus text.
//!
//! ```text
//! cargo run --release --example metrics_scrape
//! ```
//!
//! An [`IngestService`] is built with an [`Obs`] attachment — a metrics
//! registry (counters, gauges, fixed-bucket latency histograms) plus a
//! flight recorder — and served over a Unix socket. A client pushes two
//! camera feeds, then issues `GetMetrics`: the reply carries the full
//! registry snapshot, which this example renders in Prometheus text
//! format and summarizes (p50/p99 latencies derived from the pinned
//! power-of-two buckets). Recording is bitwise invisible to the runtime:
//! the same run without the attachment produces identical outcomes.

use std::sync::Arc;

use vetl::prelude::*;
use vetl::skyscraper::offline::run_offline;
use vetl::workloads::MotWorkload;

/// 120-segment planning epochs at 2 s segments.
const REPLAN_SECS: f64 = 240.0;
const CAMERAS: usize = 2;
const SEGS_PER_CAMERA: usize = 400;

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

    // The attachment: we keep one handle, the runtime holds the other.
    let obs = Arc::new(Obs::new());
    let mut service = IngestService::new(RuntimeConfig {
        shards: 0, // VETL_SHARDS override or one per detected core
        shared_cloud_budget_usd: 1.0,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(16.0),
        seed: 77,
        obs: Some(obs.clone()),
        ..RuntimeConfig::default()
    });
    service.register_profile("mot-traffic", &model, &mot);

    let sock = std::env::temp_dir().join(format!("vetl-scrape-{}.sock", std::process::id()));
    let server = NetServer::bind(ServerConfig {
        unix: Some(sock.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    println!("serving on {}…", sock.display());

    let report = std::thread::scope(|s| {
        let serve = s.spawn(move || server.serve(service).expect("serve"));
        let ep = Endpoint::Unix(sock.clone());
        let mut client = NetClient::connect(&ep, NetClientConfig::default()).expect("connect");
        for (v, feed) in feeds.iter().enumerate() {
            let slot = client
                .open_stream(
                    "mot-traffic",
                    &format!("cam-{v:02}"),
                    IngestOptions::default(),
                )
                .expect("open");
            client.push_batch(slot, feed).expect("push");
            client.close_stream(slot).expect("close");
        }

        // The scrape: one request, the whole registry.
        let snapshot = client.get_metrics().expect("metrics");
        println!("\n--- prometheus text exposition ---");
        print!("{}", snapshot.render_prometheus());
        println!("--- end exposition ---\n");

        for name in ["session_push", "batch_dispatch", "barrier_lp_solve_cold"] {
            if let Some(h) = snapshot.histogram(name) {
                if h.count > 0 {
                    println!(
                        "{name}: n={} mean={:.1}µs p50≥{:.1}µs p99≥{:.1}µs",
                        h.count,
                        h.mean_ns() / 1e3,
                        h.quantile_ns(0.5) as f64 / 1e3,
                        h.quantile_ns(0.99) as f64 / 1e3,
                    );
                }
            }
        }

        client.shutdown_server().expect("shutdown");
        let _ = client.recv_outcomes(CAMERAS);
        serve.join().expect("serve thread")
    });

    let segments: usize = report
        .outcome
        .streams
        .iter()
        .map(|s| s.outcome.segments)
        .sum();
    println!(
        "\ndrained: {segments} segments across {} stream(s), joint quality {:.3}",
        report.outcome.streams.len(),
        report.outcome.joint_quality,
    );
    // The local handle saw everything the wire snapshot reported, and the
    // flight recorder kept the tail of the run's structured trace.
    println!(
        "flight recorder: {} events recorded; last entries:",
        obs.flight.recorded()
    );
    for line in obs
        .flight
        .render()
        .lines()
        .rev()
        .take(5)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
    {
        println!("  {line}");
    }
}
