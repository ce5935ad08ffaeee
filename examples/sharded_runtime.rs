//! The sharded ingest runtime: many cameras, worker shards, mid-run churn.
//!
//! ```text
//! cargo run --release --example sharded_runtime
//! ```
//!
//! Three cameras are served by an [`IngestRuntime`]: sessions are sharded
//! across worker threads, segments arrive through bounded ingress
//! mailboxes, and the joint LP (Eqs. 7–9) re-runs at every epoch barrier
//! against pre-split wallet leases. Mid-run, a fourth camera joins and an
//! early one leaves — the next joint plan redistributes the released cores
//! and wallet share. Outcomes are bitwise identical for every shard count.

use vetl::prelude::*;
use vetl::skyscraper::offline::run_offline;
use vetl::workloads::MotWorkload;

const REPLAN_SECS: f64 = 1_800.0;
/// Segments per epoch at 2 s segments.
const QUOTA: usize = 900;

fn main() {
    let mot = MotWorkload::new();
    let covid = CovidWorkload::new();

    let hyper = SkyscraperConfig {
        n_categories: 3,
        planned_interval_secs: 4.0 * 3_600.0,
        forecast_input_secs: 4.0 * 3_600.0,
        forecast_input_splits: 4,
        ..SkyscraperConfig::default()
    };
    let hardware = HardwareSpec::with_cores(16).with_buffer(4e9);

    println!("fitting MOT @ intersection and COVID @ shopping street…");
    let mut cam_a = SyntheticCamera::new(ContentParams::traffic_intersection(41), 2.0);
    let lab_a = Recording::record(&mut cam_a, 20.0 * 60.0);
    let unl_a = Recording::record(&mut cam_a, 2.0 * 86_400.0);
    let (model_a, _) = run_offline(&mot, &lab_a, &unl_a, hardware, &hyper).expect("fit A");

    let mut cam_b = SyntheticCamera::new(ContentParams::shopping_street(42), 2.0);
    let lab_b = Recording::record(&mut cam_b, 20.0 * 60.0);
    let unl_b = Recording::record(&mut cam_b, 2.0 * 86_400.0);
    let (model_b, _) = run_offline(&covid, &lab_b, &unl_b, hardware, &hyper).expect("fit B");

    // Two hours of arrivals per camera (one model per camera *type*; each
    // camera gets its own independently seeded session).
    let online_a = Recording::record(&mut cam_a, 2.0 * 3_600.0)
        .segments()
        .to_vec();
    let online_b = Recording::record(&mut cam_b, 2.0 * 3_600.0)
        .segments()
        .to_vec();

    let mut rt = IngestRuntime::new(RuntimeConfig {
        shards: 0, // one shard per core
        shared_cloud_budget_usd: 1.0,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(16.0),
        seed: 77,
        ..RuntimeConfig::default()
    });
    println!("serving on {} shard(s)…", rt.shards());

    let a = rt
        .open_stream(
            "A (MOT, north gate)",
            &model_a,
            &mot,
            IngestOptions::default(),
        )
        .expect("admit A");
    let b = rt
        .open_stream(
            "B (COVID, mall)",
            &model_b,
            &covid,
            IngestOptions::default(),
        )
        .expect("admit B");
    let c = rt
        .open_stream(
            "C (MOT, south gate)",
            &model_a,
            &mot,
            IngestOptions::default(),
        )
        .expect("admit C");

    // Epoch 1: all three cameras run. (Round-robin keeps the mailboxes
    // balanced; a real producer would retry on SkyError::Overloaded.)
    for i in 0..QUOTA {
        rt.push(a, &online_a[i]).expect("push A");
        rt.push(b, &online_b[i]).expect("push B");
        rt.push(c, &online_a[i]).expect("push C");
    }
    let m = rt.metrics();
    println!(
        "after epoch 1: {} segments, {:.0} segs/s over {} shard(s), wallet ${:.3}",
        m.segments_processed, m.segs_per_sec, m.shards, m.wallet_left_usd
    );

    // Mid-run churn: camera A leaves (in-band close marker), camera D joins
    // (admission forces an epoch barrier so D starts planned).
    rt.close_stream(a).expect("close A");
    let d = rt
        .open_stream(
            "D (COVID, plaza)",
            &model_b,
            &covid,
            IngestOptions::default(),
        )
        .expect("admit D");
    let plan = rt.last_joint_plan().expect("admission planned");
    println!(
        "churn: A left, D joined — joint plan now covers {} streams, \
         fair share {} cores, lease ${:.3}",
        plan.streams.len(),
        plan.fair_cores,
        plan.lease_usd
    );

    // Epoch 2 with the new line-up.
    for i in QUOTA..2 * QUOTA {
        rt.push(b, &online_b[i]).expect("push B");
        rt.push(c, &online_a[i]).expect("push C");
        rt.push(d, &online_b[i]).expect("push D");
    }

    let metrics = rt.metrics();
    for s in &metrics.streams {
        println!(
            "  {:24} {} {:5} segs, lag {:3}, ${:.3} cloud, {} overflows",
            s.workload_id,
            if s.active { "active" } else { "closed" },
            s.segments_processed,
            s.lag_segments,
            s.cloud_spent_usd,
            s.overflows
        );
    }

    let out = rt.finish().expect("finish");
    println!("\nfinal outcomes (admission order):");
    for s in &out.streams {
        println!(
            "  {:24} quality {:5.1}%  {:5} segs  overflows {}",
            s.workload_id,
            100.0 * s.outcome.mean_quality,
            s.outcome.segments,
            s.outcome.overflows
        );
        assert_eq!(s.outcome.overflows, 0, "Eq. 1 must hold");
    }
    println!(
        "  joint quality {:.2}, cloud ${:.3}",
        out.joint_quality, out.cloud_usd
    );
}
