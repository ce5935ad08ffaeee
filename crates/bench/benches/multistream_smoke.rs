//! Multi-stream serving smoke bench (Appendix D).
//!
//! Serves two independently fitted paper workloads (COVID + MOT) through
//! one single-shard `IngestRuntime` — admission, round-robin pushes, joint LP
//! replanning at a 30-minute cadence, shared cloud wallet — and appends a
//! `multistream` section to `BENCH_offline.json` so the perf trajectory of
//! the serving path is tracked across PRs alongside the offline phase.

use std::time::Instant;

use skyscraper::runtime::{IngestRuntime, RuntimeConfig};
use skyscraper::IngestOptions;
use vetl_bench::benchjson::{bench_json_path, jnum, jobj, merge_into};
use vetl_bench::{data_scale, f2, pct, Table, SEED};
use vetl_workloads::{PaperWorkload, MACHINES};

fn main() {
    let scale = data_scale();
    let machine = &MACHINES[2];
    println!(
        "Multi-stream serving smoke ({scale:?} scale, {})",
        machine.name
    );

    let fitted_a = vetl_bench::fit_on(PaperWorkload::Covid, machine, scale);
    let fitted_b = vetl_bench::fit_on(PaperWorkload::Mot, machine, scale);

    // Two hours of serving is enough to cross several 30-minute replans.
    let serve_segs = 3_600
        .min(fitted_a.spec.online.len())
        .min(fitted_b.spec.online.len());
    let online_a = &fitted_a.spec.online[..serve_segs];
    let online_b = &fitted_b.spec.online[..serve_segs];

    let shared_budget = 0.5;
    let mut rt = IngestRuntime::new(RuntimeConfig {
        shards: 1,
        shared_cloud_budget_usd: shared_budget,
        seed: SEED,
        replan_interval_secs: Some(1_800.0),
        total_cores: Some(machine.vcpus as f64),
        ..RuntimeConfig::default()
    });

    let t0 = Instant::now();
    let id_a = rt
        .open_stream(
            "covid",
            &fitted_a.model,
            fitted_a.spec.workload.as_ref(),
            IngestOptions::default(),
        )
        .expect("admit covid");
    let id_b = rt
        .open_stream(
            "mot",
            &fitted_b.model,
            fitted_b.spec.workload.as_ref(),
            IngestOptions::default(),
        )
        .expect("admit mot");
    for (seg_a, seg_b) in online_a.iter().zip(online_b) {
        rt.push(id_a, seg_a).expect("serve covid");
        rt.push(id_b, seg_b).expect("serve mot");
    }
    let pushed = 2 * serve_segs;
    let joint_plans = rt.joint_plans();
    let out = rt.finish().expect("finish");
    let wall_secs = t0.elapsed().as_secs_f64();

    let overflows: usize = out.streams.iter().map(|s| s.outcome.overflows).sum();
    let mut table = Table::new(
        "multi-stream serving smoke",
        &["stream", "quality", "work core-s", "overflows"],
    );
    for s in &out.streams {
        table.row(vec![
            s.workload_id.clone(),
            pct(s.outcome.mean_quality),
            f2(s.outcome.work_core_secs),
            s.outcome.overflows.to_string(),
        ]);
    }
    table.print();
    println!(
        "\n{pushed} segments across 2 streams in {wall_secs:.2} s \
         ({:.0} segs/s), {joint_plans} joint plans, ${:.3} cloud",
        pushed as f64 / wall_secs.max(1e-9),
        out.cloud_usd
    );
    assert_eq!(overflows, 0, "serving path must keep Eq. 1");

    merge_into(
        bench_json_path(),
        "multistream",
        &jobj(&[
            ("streams", jnum(out.streams.len() as f64)),
            ("segments", jnum(pushed as f64)),
            ("wall_secs", jnum(wall_secs)),
            ("segs_per_sec", jnum(pushed as f64 / wall_secs.max(1e-9))),
            ("joint_plans", jnum(joint_plans as f64)),
            ("joint_quality", jnum(out.joint_quality)),
            ("cloud_usd", jnum(out.cloud_usd)),
            ("overflows", jnum(overflows as f64)),
        ]),
    );
}
