//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;

use vetl::lp::{solve, LpProblem, Relation};
use vetl::ml::{KMeans, KMeansConfig};
use vetl::sim::{simulate, Backlog, CloudSpec, ClusterSpec, Placement, TaskGraph, TaskNode};
use vetl::skyscraper::KnobPlan;

proptest! {
    /// LP solutions are feasible and at least as good as any sampled
    /// feasible point (local optimality witness).
    #[test]
    fn lp_solution_is_feasible_and_dominant(
        c1 in 0.1f64..5.0,
        c2 in 0.1f64..5.0,
        b1 in 1.0f64..20.0,
        b2 in 1.0f64..20.0,
        probe in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 16),
    ) {
        let mut p = LpProblem::new();
        let x = p.add_var("x", c1);
        let y = p.add_var("y", c2);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Le, b1);
        p.add_constraint(vec![(x, 3.0), (y, 1.0)], Relation::Le, b2);
        let s = solve(&p).expect("bounded feasible LP");
        prop_assert!(p.is_feasible(&s.values, 1e-6));
        for (px, py) in probe {
            if p.is_feasible(&[px, py], 0.0) {
                let obj = c1 * px + c2 * py;
                prop_assert!(s.objective >= obj - 1e-6,
                    "solver {} beaten by probe {}", s.objective, obj);
            }
        }
    }

    /// KMeans inertia never increases when k grows.
    #[test]
    fn kmeans_inertia_monotone_in_k(
        points in prop::collection::vec(
            prop::collection::vec(-10.0f64..10.0, 2), 12..60),
    ) {
        let i2 = KMeans::fit(&points, &KMeansConfig { k: 2, ..Default::default() }).inertia();
        let i4 = KMeans::fit(&points, &KMeansConfig { k: 4, ..Default::default() }).inertia();
        prop_assert!(i4 <= i2 + 1e-6, "k=4 inertia {} > k=2 inertia {}", i4, i2);
    }

    /// Knob plans normalize every category histogram (Eq. 4).
    #[test]
    fn knob_plan_rows_always_normalize(
        raw in prop::collection::vec(
            prop::collection::vec(0.0f64..10.0, 4), 1..6),
    ) {
        let plan = KnobPlan::new(raw);
        for c in 0..plan.n_categories() {
            let s: f64 = plan.histogram(c).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(plan.histogram(c).iter().all(|&v| v >= 0.0));
        }
    }

    /// The backlog conserves bytes: freed bytes never exceed pushed bytes,
    /// and the outstanding count matches pushes minus frees.
    #[test]
    fn backlog_conserves_bytes(
        ops in prop::collection::vec((1.0f64..100.0, 0.1f64..10.0, 0.0f64..15.0), 1..60),
    ) {
        let mut backlog = Backlog::new();
        let mut pushed = 0.0;
        let mut freed = 0.0;
        for (bytes, work, capacity) in ops {
            backlog.push(bytes, work);
            pushed += bytes;
            freed += backlog.process(capacity);
            prop_assert!(backlog.bytes() >= -1e-6);
            prop_assert!(backlog.work() >= -1e-6);
        }
        prop_assert!(freed <= pushed + 1e-6);
        prop_assert!((pushed - freed - backlog.bytes()).abs() < 1e-6 * pushed.max(1.0));
    }

    /// Makespan is monotone: moving any single task from a 1-core cluster to
    /// a larger cluster never increases the makespan.
    #[test]
    fn makespan_monotone_in_cores(
        secs in prop::collection::vec(0.01f64..2.0, 1..12),
        cores_small in 1usize..3,
        extra in 1usize..6,
    ) {
        let mut g = TaskGraph::new();
        for (i, &s) in secs.iter().enumerate() {
            g.add_node(TaskNode::new(format!("t{i}"), s, s / 2.0));
        }
        let p = Placement::all_onprem(g.len());
        let cloud = CloudSpec::default();
        let small = simulate(&g, &p, &ClusterSpec::with_cores(cores_small), &cloud);
        let large = simulate(&g, &p, &ClusterSpec::with_cores(cores_small + extra), &cloud);
        prop_assert!(large.makespan <= small.makespan + 1e-9);
        // Work is conserved regardless of core count.
        prop_assert!((large.onprem_busy_secs - small.onprem_busy_secs).abs() < 1e-9);
    }

    /// The makespan never undercuts the two classic lower bounds:
    /// total-work / cores and the critical path.
    #[test]
    fn makespan_respects_lower_bounds(
        secs in prop::collection::vec(0.01f64..2.0, 2..10),
        chain in prop::bool::ANY,
        cores in 1usize..8,
    ) {
        let mut g = TaskGraph::new();
        let mut prev = None;
        for (i, &s) in secs.iter().enumerate() {
            let n = g.add_node(TaskNode::new(format!("t{i}"), s, s));
            if chain {
                if let Some(p) = prev {
                    g.add_edge(p, n);
                }
                prev = Some(n);
            }
        }
        let r = simulate(
            &g,
            &Placement::all_onprem(g.len()),
            &ClusterSpec::with_cores(cores),
            &CloudSpec::default(),
        );
        let work_bound = g.total_onprem_secs() / cores as f64;
        let path_bound = g.critical_path_secs();
        prop_assert!(r.makespan + 1e-9 >= work_bound);
        prop_assert!(r.makespan + 1e-9 >= path_bound);
    }
}

// ---- Session-API properties: the streaming push/finish surface must be
// indistinguishable from the one-shot batch loop. ----

use std::sync::OnceLock;

use vetl::prelude::*;
use vetl::skyscraper::offline::run_offline;
use vetl::skyscraper::testkit::{assert_outcomes_bitwise_equal, ToyWorkload};
use vetl::skyscraper::FittedModel;

/// One fitted toy model plus a 2-hour segment pool, shared across property
/// cases (fitting per case would dominate the runtime).
fn session_fixture() -> &'static (ToyWorkload, FittedModel, Vec<Segment>) {
    static FIXTURE: OnceLock<(ToyWorkload, FittedModel, Vec<Segment>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let (model, _) = run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(4),
            &SkyscraperConfig::fast_test(),
        )
        .expect("fixture fit");
        let online = Recording::record(&mut cam, 2.0 * 3_600.0)
            .segments()
            .to_vec();
        (w, model, online)
    })
}

/// The session fixture's model pushed through a knowledge-base round-trip:
/// `(workload, fitted model, reloaded model, online segments)`.
fn kb_fixture() -> (
    &'static ToyWorkload,
    &'static FittedModel,
    &'static FittedModel,
    &'static [Segment],
) {
    static LOADED: OnceLock<FittedModel> = OnceLock::new();
    let (w, model, pool) = session_fixture();
    let loaded = LOADED.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!(
            "vetl-prop-kb-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let kb = vetl::skyscraper::offline::KnowledgeBase::open(&dir).expect("open kb");
        kb.save_model(model).expect("save");
        let loaded = kb.load_model().expect("load");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            loaded.fingerprint(),
            model.fingerprint(),
            "round-trip must be bitwise"
        );
        loaded
    });
    (w, model, loaded, pool)
}

proptest! {
    /// For random seeds, windows, budgets and ablation gates, feeding the
    /// stream segment-by-segment through a session produces an outcome
    /// identical (bitwise) to the one-shot batch ingest.
    #[test]
    fn session_push_finish_equals_batch_ingest(
        seed in 0u64..1_000_000,
        start in 0usize..100_000,
        len in 16usize..300,
        budget in 0.0f64..0.4,
        buffering in prop::bool::ANY,
        cloud in prop::bool::ANY,
    ) {
        let (w, model, pool) = session_fixture();
        let start = start % (pool.len() - len);
        let segs = &pool[start..start + len];
        let opts = IngestOptions {
            seed,
            cloud_budget_usd: budget,
            enable_buffering: buffering,
            enable_cloud: cloud,
            record_trace: true,
            ..Default::default()
        };

        let batch = IngestSession::batch(model, w, opts.clone(), segs).expect("batch");

        let mut session =
            IngestSession::with_stream_stats(model, w, opts, StreamStats::from_segments(segs));
        session.pin_ground_truth(
            segs.iter()
                .map(|s| model.ground_truth_category(w, &s.content))
                .collect(),
        );
        for seg in segs {
            session.push(seg).expect("push");
        }
        assert_outcomes_bitwise_equal("bitwise", &batch, &session.finish());
    }

    /// For random windows, seeds, budgets and gates, an online run over a
    /// model that went through a knowledge-base `save → load` round-trip is
    /// bitwise identical to a run over the freshly fitted model — the
    /// persisted codec is invisible to the online phase.
    #[test]
    fn kb_saved_model_runs_bitwise_identically(
        seed in 0u64..1_000_000,
        start in 0usize..100_000,
        len in 16usize..200,
        budget in 0.0f64..0.4,
        buffering in prop::bool::ANY,
        cloud in prop::bool::ANY,
    ) {
        let (w, fitted, loaded, pool) = kb_fixture();
        let start = start % (pool.len() - len);
        let segs = &pool[start..start + len];
        let opts = IngestOptions {
            seed,
            cloud_budget_usd: budget,
            enable_buffering: buffering,
            enable_cloud: cloud,
            record_trace: true,
            ..Default::default()
        };
        let a = IngestSession::batch(fitted, w, opts.clone(), segs).expect("fitted run");
        let b = IngestSession::batch(loaded, w, opts, segs).expect("loaded run");
        assert_outcomes_bitwise_equal("bitwise property", &a, &b);
    }

    /// Checkpointing a session mid-stream and resuming it continues the run
    /// bit-for-bit: the spliced run equals the uninterrupted one.
    #[test]
    fn session_checkpoint_resume_is_transparent(
        seed in 0u64..1_000_000,
        start in 0usize..100_000,
        len in 32usize..200,
        cut_pct in 1usize..100,
    ) {
        let (w, model, pool) = session_fixture();
        let start = start % (pool.len() - len);
        let segs = &pool[start..start + len];
        let cut = (len * cut_pct / 100).max(1).min(len - 1);
        let opts = IngestOptions { seed, ..Default::default() };

        let straight = IngestSession::batch(model, w, opts.clone(), segs).expect("straight");

        let gt: Vec<usize> = segs
            .iter()
            .map(|s| model.ground_truth_category(w, &s.content))
            .collect();
        let mut session =
            IngestSession::with_stream_stats(model, w, opts, StreamStats::from_segments(segs));
        session.pin_ground_truth(gt);
        for seg in &segs[..cut] {
            session.push(seg).expect("push before cut");
        }
        let checkpoint = session.checkpoint();
        prop_assert_eq!(checkpoint.segments_pushed(), cut);
        drop(session);

        let mut resumed = IngestSession::resume(model, w, checkpoint);
        for seg in &segs[cut..] {
            resumed.push(seg).expect("push after cut");
        }
        assert_outcomes_bitwise_equal("bitwise", &straight, &resumed.finish());
    }
}
