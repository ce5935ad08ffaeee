//! Figure 13: decision overheads of the knob switcher and knob planner.
//!
//! Left panel: knob-switcher runtime as a function of the total number of
//! placements — the worst case (every placement rejected until the last) is
//! linear; per-workload averages sit far below. Reproduction target: the
//! switcher stays **below 1 ms** and the planner **below 1 s** at the
//! paper's problem sizes (|C| ∈ 5…155, |K| ∈ 3…15).

use std::time::Instant;

use skyscraper::{plan_knobs, KnobPlan, KnobSwitcher, SwitcherLimits};
use vetl_bench::{data_scale, synthetic_model, Table, SEED};
use vetl_workloads::{paper_workloads, MACHINES};

fn main() {
    println!("Figure 13 — knob switcher and knob planner overheads");

    // ---- Switcher runtime vs total placements (worst case). ----
    let mut table = Table::new(
        "knob switcher runtime vs total placements",
        &["placements", "worst-case µs", "best-case µs"],
    );
    for total_placements in [100usize, 500, 1_000, 2_000, 5_000, 10_000] {
        let n_k = 20;
        let per_config = total_placements / n_k;
        let model = synthetic_model(n_k, 8, per_config);
        let plan = KnobPlan::single_config(8, n_k, model.quality_rank[0]);
        let mut sw = KnobSwitcher::new(&model, plan.clone());

        // Worst case: full buffer and no cloud credits force the switcher
        // to scan every placement of every configuration.
        let tight = SwitcherLimits {
            buffer_capacity: 0.0,
            seg_bytes_reserve: 1e6,
            capacity_per_seg: 1e-6,
            safety: 1.1,
            cloud_enabled: false,
        };
        let reps = 200;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = sw.decide(&model, 0, 1e9, 1e9, 0.0, &tight);
        }
        let worst_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

        // Best case: plentiful resources, first placement accepted.
        let relaxed = SwitcherLimits {
            buffer_capacity: 1e12,
            seg_bytes_reserve: 1e5,
            capacity_per_seg: 1e9,
            safety: 1.1,
            cloud_enabled: true,
        };
        let mut sw2 = KnobSwitcher::new(&model, plan);
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = sw2.decide(&model, 0, 0.0, 0.0, 1e9, &relaxed);
        }
        let best_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

        table.row(vec![
            total_placements.to_string(),
            format!("{worst_us:.1}"),
            format!("{best_us:.1}"),
        ]);
    }
    table.print();

    // ---- Planner runtime heat map: |C| × |K|. ----
    let mut table = Table::new(
        "knob planner runtime (ms) — content categories × knob configurations",
        &["|C| \\ |K|", "3", "7", "11", "15"],
    );
    for n_c in [5usize, 35, 65, 95, 125, 155] {
        let mut row = vec![n_c.to_string()];
        for n_k in [3usize, 7, 11, 15] {
            let model = synthetic_model(n_k, n_c, 2);
            let r = vec![1.0 / n_c as f64; n_c];
            let t0 = Instant::now();
            let plan = plan_knobs(&model, &r, 1.0 + n_k as f64).expect("LP solves");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(plan.n_categories(), n_c);
            row.push(format!("{ms:.1}"));
        }
        table.row(row);
    }
    table.print();

    // ---- Actual runtimes on the paper workloads. ----
    let scale = data_scale();
    let mut table = Table::new(
        "actual per-workload decision overheads",
        &[
            "workload",
            "|K|",
            "|C|",
            "placements",
            "switcher µs",
            "planner ms",
        ],
    );
    for which in paper_workloads() {
        let fitted = vetl_bench::fit_on(which, &MACHINES[1], scale);
        let model = &fitted.model;
        let n_placements: usize = model.configs.iter().map(|c| c.placements.len()).sum();
        let plan = KnobPlan::single_config(
            model.n_categories(),
            model.n_configs(),
            model.quality_rank[0],
        );
        let mut sw = KnobSwitcher::new(model, plan);
        let limits = SwitcherLimits {
            buffer_capacity: 4e9,
            seg_bytes_reserve: 2e5,
            capacity_per_seg: 16.0,
            safety: 1.1,
            cloud_enabled: true,
        };
        let reps = 500;
        let t0 = Instant::now();
        for i in 0..reps {
            let _ = sw.decide(model, i % model.n_categories(), 1e8, 20.0, 1.0, &limits);
        }
        let sw_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

        let r = vec![1.0 / model.n_categories() as f64; model.n_categories()];
        let t0 = Instant::now();
        let _ = plan_knobs(model, &r, 16.0).expect("plan");
        let plan_ms = t0.elapsed().as_secs_f64() * 1e3;

        assert!(
            sw_us < 1_000.0,
            "switcher must stay under 1 ms, got {sw_us} µs"
        );
        assert!(
            plan_ms < 1_000.0,
            "planner must stay under 1 s, got {plan_ms} ms"
        );
        table.row(vec![
            which.name().into(),
            model.n_configs().to_string(),
            model.n_categories().to_string(),
            n_placements.to_string(),
            format!("{sw_us:.1}"),
            format!("{plan_ms:.2}"),
        ]);
    }
    table.print();
    let _ = SEED;
    println!("\nPaper targets: switcher < 1 ms, planner < 1 s — both hold.");
}
