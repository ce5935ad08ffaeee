//! Multi-stream ingestion (Appendix D): two cameras behind one server.
//!
//! ```text
//! cargo run --release --example multi_stream
//! ```
//!
//! Each stream is fitted independently offline; online, a
//! [`MultiStreamServer`] multiplexes both streams: admission gives every
//! stream a fair share of the cluster, a single **joint LP** (Eqs. 7–9)
//! re-allocates the shared budget across both streams' content categories
//! at the planning cadence, and the two knob switchers draw cloud credits
//! from one shared wallet while keeping their own buffers.

use vetl::prelude::*;
use vetl::skyscraper::multistream::joint_plan;
use vetl::skyscraper::offline::run_offline;
use vetl::workloads::MotWorkload;

fn main() {
    // Stream A: a busy traffic intersection; stream B: a shopping street.
    let workload_a = MotWorkload::new();
    let workload_b = CovidWorkload::new();

    let hyper = SkyscraperConfig {
        n_categories: 3,
        planned_interval_secs: 4.0 * 3_600.0,
        forecast_input_secs: 4.0 * 3_600.0,
        forecast_input_splits: 4,
        ..SkyscraperConfig::default()
    };
    let hardware = HardwareSpec::with_cores(16).with_buffer(4e9);

    println!("fitting stream A (MOT @ intersection)…");
    let mut cam_a = SyntheticCamera::new(ContentParams::traffic_intersection(31), 2.0);
    let lab_a = Recording::record(&mut cam_a, 20.0 * 60.0);
    let unl_a = Recording::record(&mut cam_a, 2.0 * 86_400.0);
    let (model_a, _) = run_offline(&workload_a, &lab_a, &unl_a, hardware, &hyper).expect("fit A");

    println!("fitting stream B (COVID @ shopping street)…");
    let mut cam_b = SyntheticCamera::new(ContentParams::shopping_street(32), 2.0);
    let lab_b = Recording::record(&mut cam_b, 20.0 * 60.0);
    let unl_b = Recording::record(&mut cam_b, 2.0 * 86_400.0);
    let (model_b, _) = run_offline(&workload_b, &lab_b, &unl_b, hardware, &hyper).expect("fit B");

    // Joint plan preview: how does the shared LP split the budget?
    let rs: Vec<Vec<f64>> = [&model_a, &model_b]
        .iter()
        .map(|m| m.forecaster.forecast(&m.tail.categories, m.seg_len))
        .collect();
    let plans = joint_plan(&[&model_a, &model_b], &rs, 32.0).expect("joint LP");
    for (v, plan) in plans.iter().enumerate() {
        println!(
            "stream {} plan (α per category):",
            if v == 0 { "A" } else { "B" }
        );
        for c in 0..plan.n_categories() {
            let hist: Vec<String> = plan
                .histogram(c)
                .iter()
                .map(|a| format!("{a:.2}"))
                .collect();
            println!("  category {c}: [{}]", hist.join(", "));
        }
    }

    // Serve six hours on both streams with a shared $1 cloud wallet: admit
    // both streams, then feed segments round-robin as they "arrive".
    println!("\nserving 6 hours on both streams (shared cloud wallet)…");
    let online_a = Recording::record(&mut cam_a, 6.0 * 3_600.0)
        .segments()
        .to_vec();
    let online_b = Recording::record(&mut cam_b, 6.0 * 3_600.0)
        .segments()
        .to_vec();

    let mut server = MultiStreamServer::new(1.0, CostModel::default(), 77);
    let id_a = server
        .open_stream("A (MOT)", &model_a, &workload_a, IngestOptions::default())
        .expect("admit A");
    let id_b = server
        .open_stream("B (COVID)", &model_b, &workload_b, IngestOptions::default())
        .expect("admit B");
    server
        .push_round_robin(&[(id_a, online_a.as_slice()), (id_b, online_b.as_slice())])
        .expect("serve both streams");
    println!(
        "  joint LP ran {} times; wallet left ${:.3}",
        server.joint_plans(),
        server.wallet_left()
    );
    let out = server.finish();

    for s in &out.streams {
        println!(
            "  stream {}: quality {:.1}%  work {:.0} core-s  overflows {}",
            s.workload_id,
            100.0 * s.outcome.mean_quality,
            s.outcome.work_core_secs,
            s.outcome.overflows,
        );
        assert_eq!(s.outcome.overflows, 0);
    }
    println!("  joint quality  : {:.2}", out.joint_quality);
    println!("  shared cloud $ : {:.3} of 1.000", out.cloud_usd);
}
