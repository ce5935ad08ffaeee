//! Criterion micro-benchmarks for the hot decision paths.
//!
//! Complements `fig13_overheads` with statistically rigorous measurements of
//! the knob switcher, knob planner (LP), KMeans, forecaster inference and
//! the Appendix-M makespan simulator.

use criterion::{BatchSize, Criterion};

use skyscraper::{plan_knobs, KnobPlan, KnobSwitcher, SwitcherLimits};
use vetl_bench::benchjson::{bench_json_path, jnum, jobj, merge_into};
use vetl_bench::synthetic_model;
use vetl_lp::{solve, LpProblem, Relation};
use vetl_ml::{KMeans, KMeansConfig, Mlp};
use vetl_sim::{simulate, CloudSpec, ClusterSpec, Placement, TaskGraph, TaskNode};

fn bench_switcher(c: &mut Criterion) {
    let model = synthetic_model(15, 5, 8);
    let plan = KnobPlan::single_config(5, 15, model.quality_rank[0]);
    let limits = SwitcherLimits {
        buffer_capacity: 4e9,
        seg_bytes_reserve: 2e5,
        capacity_per_seg: 16.0,
        safety: 1.1,
        cloud_enabled: true,
    };
    c.bench_function("knob_switcher_decide", |b| {
        b.iter_batched(
            || KnobSwitcher::new(&model, plan.clone()),
            |mut sw| sw.decide(&model, 2, 1e8, 30.0, 1.0, &limits),
            BatchSize::SmallInput,
        )
    });
}

fn bench_planner(c: &mut Criterion) {
    let model = synthetic_model(15, 35, 2);
    let r = vec![1.0 / 35.0; 35];
    c.bench_function("knob_planner_lp_35x15", |b| {
        b.iter(|| plan_knobs(&model, &r, 16.0).expect("solves"))
    });
}

fn bench_kmeans(c: &mut Criterion) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let points: Vec<Vec<f64>> = (0..500)
        .map(|_| (0..8).map(|_| rng.gen::<f64>()).collect())
        .collect();
    c.bench_function("kmeans_500x8_k4", |b| {
        b.iter(|| {
            KMeans::fit(
                &points,
                &KMeansConfig {
                    k: 4,
                    n_init: 1,
                    ..Default::default()
                },
            )
        })
    });
}

fn bench_forecaster(c: &mut Criterion) {
    let net = Mlp::forecaster(40, 5, 1);
    let input = vec![0.2; 40];
    c.bench_function("forecaster_forward", |b| b.iter(|| net.forward(&input)));
}

fn bench_simplex(c: &mut Criterion) {
    // Planner-shaped LP: 75 vars, 1 budget + 15 equality rows.
    let build = || {
        let mut lp = LpProblem::new();
        let mut vars = Vec::new();
        for i in 0..75 {
            vars.push(lp.add_var(format!("x{i}"), (i % 7) as f64 * 0.1));
        }
        let budget: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(budget, Relation::Le, 20.0);
        for c in 0..15 {
            let terms: Vec<_> = (0..5).map(|k| (vars[c * 5 + k], 1.0)).collect();
            lp.add_constraint(terms, Relation::Eq, 1.0);
        }
        lp
    };
    c.bench_function("simplex_75v_16c", |b| {
        b.iter_batched(
            build,
            |lp| solve(&lp).expect("solves"),
            BatchSize::SmallInput,
        )
    });
}

fn bench_makespan(c: &mut Criterion) {
    let mut g = TaskGraph::new();
    let mut prev = None;
    for i in 0..8 {
        let n = g.add_node(TaskNode::new(format!("n{i}"), 0.1, 0.05).with_payload(1e5, 1e4));
        if let Some(p) = prev {
            g.add_edge(p, n);
        }
        prev = Some(n);
    }
    let placement = Placement::from_mask(8, 0b1010_1010);
    let cluster = ClusterSpec::with_cores(4);
    let cloud = CloudSpec::default();
    c.bench_function("makespan_8node_chain", |b| {
        b.iter(|| simulate(&g, &placement, &cluster, &cloud))
    });
}

fn main() {
    let mut c = Criterion::default();
    bench_switcher(&mut c);
    bench_planner(&mut c);
    bench_kmeans(&mut c);
    bench_forecaster(&mut c);
    bench_simplex(&mut c);
    bench_makespan(&mut c);

    // Merge the measurements into the perf-trajectory file next to the
    // offline-phase timings.
    let rows: Vec<(&str, String)> = c
        .results()
        .iter()
        .map(|r| (r.name.as_str(), jnum(r.mean_ns)))
        .collect();
    merge_into(bench_json_path(), "micro_overheads_ns", &jobj(&rows));
}
