//! Hostile-network & flash-crowd robustness for the ingest runtime.
//!
//! The acceptance bar of the degraded-network subsystem:
//!
//! * **Clean networks are bitwise unchanged.** With the reorder gate
//!   compiled in — disabled, or enabled on in-order input — every outcome
//!   bit matches the pre-gate runtime, across shard counts.
//! * **Within-window reordering is bitwise invisible.** A delivery schedule
//!   whose worst displacement fits the gate window produces the *same
//!   outcome bits* as the in-order run: the gate restores order and the
//!   epoch boundaries land in the same places.
//! * **Lateness and flash crowds are typed, retryable where documented,
//!   and traceless.** A rejected late segment or deferred admission leaves
//!   no state behind — the run's outcome is bitwise identical to one that
//!   never saw the rejected call.
//! * **Loss never deadlocks.** Dropped segments force the watermark
//!   forward; `finish` always completes and the gap is accounted as
//!   `lost`, never silently absorbed.
//!
//! Environment knobs (mirrored by the CI chaos matrix): `VETL_SHARDS`
//! (extra shard count, default 4) and `VETL_CHAOS_SEED` (schedule seed,
//! default 0xC0FFEE), so a failing draw replays exactly.

use std::sync::OnceLock;

use proptest::prelude::*;

use vetl::prelude::*;
use vetl::skyscraper::offline::run_offline;
use vetl::skyscraper::testkit::chaos::DeliverySchedule;
use vetl::skyscraper::testkit::{
    assert_multi_outcomes_bitwise_equal, assert_outcomes_bitwise_equal, ToyWorkload,
};
use vetl::skyscraper::{FittedModel, MultiOutcome};
use vetl::workloads::{churn_intervals, flash_crowd_opens, NetConditions};

const SHARED_BUDGET_USD: f64 = 0.5;
/// Short planning epochs (120 segments at 2 s) so runs cross many barriers.
const REPLAN_SECS: f64 = 240.0;
const QUOTA: usize = 120;
const SEED: u64 = 17;
const TOTAL_CORES: f64 = 16.0;

fn max_shards() -> usize {
    std::env::var("VETL_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

fn chaos_seed() -> u64 {
    std::env::var("VETL_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE)
}

type Fixture = (ToyWorkload, FittedModel, Vec<Segment>);

/// One fitted stream plus 390 online segments (3¼ epochs).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(31), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let (model, _) = run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(16),
            &SkyscraperConfig::fast_test(),
        )
        .expect("fit");
        let online = Recording::record(&mut cam, 780.0).segments().to_vec();
        (w, model, online)
    })
}

fn config(shards: usize, cap: Option<usize>) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        shared_cloud_budget_usd: SHARED_BUDGET_USD,
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(TOTAL_CORES),
        admission_epoch_cap: cap,
        ..RuntimeConfig::default()
    }
}

fn opts(window: Option<usize>) -> IngestOptions {
    IngestOptions {
        reorder_window: window,
        ..IngestOptions::default()
    }
}

/// Drive one stream through the sharded runtime in the given arrival order;
/// every push must be accepted.
fn run_runtime(shards: usize, window: Option<usize>, arrivals: &[Segment]) -> MultiOutcome {
    let (w, m, _) = fixture();
    let mut rt = IngestRuntime::new(config(shards, None));
    let id = rt
        .open_stream("cam-0".to_string(), m, w, opts(window))
        .expect("admission");
    for s in arrivals {
        rt.push(id, s).expect("accepted arrival");
    }
    rt.finish().expect("finish")
}

/// A session over `segs` with pinned ground truth, as `tests/properties.rs`
/// builds them — both sides of a bitwise comparison use this constructor.
fn session<'a>(
    model: &'a FittedModel,
    w: &'a ToyWorkload,
    options: IngestOptions,
    segs: &[Segment],
) -> IngestSession<'a, ToyWorkload> {
    let mut s =
        IngestSession::with_stream_stats(model, w, options, StreamStats::from_segments(segs));
    s.pin_ground_truth(
        segs.iter()
            .map(|x| model.ground_truth_category(w, &x.content))
            .collect(),
    );
    s
}

/// Move the stream's first segment to the front of the arrival order. The
/// gate anchors its watermark at the first arrival, so the tolerance
/// window is only well-defined for schedules where the stream head leads —
/// the session open and the first segment travel together in practice.
fn pin_first(mut sched: DeliverySchedule) -> DeliverySchedule {
    let p = sched
        .order
        .iter()
        .position(|&x| x == 0)
        .expect("lossless schedule delivers position 0");
    let first = sched.order.remove(p);
    sched.order.insert(0, first);
    sched
}

#[test]
fn clean_network_is_bitwise_unchanged_by_the_gate() {
    let (_, _, segs) = fixture();
    let sched = NetConditions::clean(chaos_seed()).delivery_schedule(segs);
    assert!(sched.is_clean(), "zero impairments must be the identity");
    assert_eq!(sched.apply(segs), *segs);
    for shards in [1, 2, max_shards()] {
        let baseline = run_runtime(shards, None, segs);
        for window in [1, 4, 64] {
            let gated = run_runtime(shards, Some(window), segs);
            assert_multi_outcomes_bitwise_equal(
                &format!("clean network, window {window}, shards {shards}"),
                &baseline,
                &gated,
            );
        }
    }
}

#[test]
fn within_window_reorder_matches_the_in_order_run_bitwise() {
    let (_, _, segs) = fixture();
    for (i, seed) in [chaos_seed(), chaos_seed() ^ 0x5DEE_CE66]
        .into_iter()
        .enumerate()
    {
        let cond = NetConditions {
            drop_prob: 0.0,
            ..NetConditions::hostile(2.0, seed)
        };
        let sched = pin_first(cond.delivery_schedule(segs));
        assert!(!sched.is_clean(), "hostile conditions must reorder");
        let window = sched.max_displacement();
        assert!(window > 0);
        for shards in [2, max_shards()] {
            let in_order = run_runtime(shards, Some(window), segs);
            let degraded = run_runtime(shards, Some(window), &sched.apply(segs));
            assert_multi_outcomes_bitwise_equal(
                &format!("degraded schedule {i} (window {window}), shards {shards}"),
                &in_order,
                &degraded,
            );
        }
    }
}

#[test]
fn late_segment_rejection_is_typed_and_traceless() {
    let (w, m, segs) = fixture();
    let window = 2usize;
    let reference = run_runtime(2, Some(window), segs);

    let mut rt = IngestRuntime::new(config(2, None));
    let id = rt
        .open_stream("cam-0".to_string(), m, w, opts(Some(window)))
        .expect("admission");
    // A first arrival indexed `u64::MAX` would anchor the watermark at the
    // end of the index space and overflow it on release: refused typed and
    // terminal before the gate anchors, so the stream serves on as if the
    // call never happened.
    let unanchorable = Segment {
        index: u64::MAX,
        ..segs[0]
    };
    match rt.push(id, &unanchorable) {
        Err(e @ SkyError::InvalidInput { .. }) => assert!(!e.is_retryable()),
        other => panic!("index u64::MAX must be InvalidInput, got {other:?}"),
    }
    for (i, s) in segs.iter().enumerate() {
        rt.push(id, s).expect("accepted arrival");
        if i == 9 {
            // The watermark passed this index long ago: typed rejection,
            // with the error carrying where the stream actually stands.
            match rt.push(id, &segs[3]) {
                Err(SkyError::LateSegment {
                    index,
                    expected,
                    window: win,
                }) => {
                    assert_eq!(index, segs[3].index);
                    assert_eq!(expected, segs[0].index + 10);
                    assert_eq!(win, window);
                }
                other => panic!("late arrival must be LateSegment, got {other:?}"),
            }
            assert!(
                !SkyError::LateSegment {
                    index: 0,
                    expected: 0,
                    window
                }
                .is_retryable(),
                "a late segment can never succeed on retry"
            );
        }
    }
    let with_rejection = rt.finish().expect("finish");
    assert_multi_outcomes_bitwise_equal(
        "rejected late segment leaves no trace",
        &reference,
        &with_rejection,
    );
}

#[test]
fn duplicate_of_a_held_segment_is_late() {
    let (w, m, segs) = fixture();
    let mut s = session(m, w, opts(Some(4)), &segs[..8]);
    s.push_arrival(&segs[0]).expect("anchor");
    s.push_arrival(&segs[2]).expect("held");
    assert_eq!(s.reorder_held(), 1);
    match s.push_arrival(&segs[2]) {
        Err(SkyError::LateSegment { index, .. }) => assert_eq!(index, segs[2].index),
        other => panic!("duplicate held index must be LateSegment, got {other:?}"),
    }
    s.push_arrival(&segs[1]).expect("gap fill releases");
    assert_eq!(s.reorder_held(), 0);
    assert_eq!(s.reorder_stats().lost, 0);
}

#[test]
fn flash_crowd_admissions_defer_typed_and_recover_after_dispatch() {
    let (w, m, segs) = fixture();
    // Three cameras reconnect in one synchronized burst.
    let storm = flash_crowd_opens(3, 60.0, 5.0, chaos_seed());
    assert_eq!(storm.len(), 3);

    let mut rt = IngestRuntime::new(config(2, Some(2)));
    let a = rt
        .open_stream("cam-0".to_string(), m, w, opts(None))
        .expect("first open under the cap");
    let b = rt
        .open_stream("cam-1".to_string(), m, w, opts(None))
        .expect("second open under the cap");
    let deferred = rt.open_stream("cam-2".to_string(), m, w, opts(None));
    match deferred {
        Err(ref e @ SkyError::AdmissionDeferred { pending, cap }) => {
            assert_eq!((pending, cap), (2, 2));
            assert!(e.is_retryable(), "deferral is backpressure, not failure");
        }
        other => panic!("third open must defer, got {other:?}"),
    }
    // The window reopens once segments make progress: fill both mailboxes
    // so the epoch dispatches, then retry the identical call.
    for s in &segs[..QUOTA] {
        rt.push(a, s).expect("push a");
    }
    for s in &segs[..QUOTA] {
        rt.push(b, s).expect("push b");
    }
    let c = rt
        .open_stream("cam-2".to_string(), m, w, opts(None))
        .expect("retry after dispatch succeeds");
    rt.push(c, &segs[0]).expect("admitted stream ingests");
    let out = rt.finish().expect("finish");
    assert_eq!(out.streams.len(), 3);
}

#[test]
fn multistream_server_defers_flash_crowds_the_same_way() {
    let (w, m, segs) = fixture();
    let mut server = MultiStreamServer::new(SHARED_BUDGET_USD, CostModel::default(), SEED)
        .with_replan_interval(REPLAN_SECS)
        .with_total_cores(TOTAL_CORES)
        .with_admission_cap(2);
    let a = server
        .open_stream("cam-0", m, w, IngestOptions::default())
        .expect("first open");
    server
        .open_stream("cam-1", m, w, IngestOptions::default())
        .expect("second open");
    match server.open_stream("cam-2", m, w, IngestOptions::default()) {
        Err(SkyError::AdmissionDeferred { pending, cap }) => assert_eq!((pending, cap), (2, 2)),
        other => panic!("third open must defer, got {other:?}"),
    }
    server.push(a, &segs[0]).expect("progress");
    server
        .open_stream("cam-2", m, w, IngestOptions::default())
        .expect("retry after progress succeeds");
}

#[test]
fn dropped_segments_force_the_watermark_without_deadlock() {
    let (w, m, segs) = fixture();
    let cond = NetConditions {
        drop_prob: 0.03,
        ..NetConditions::hostile(2.0, chaos_seed())
    };
    let sched = pin_first(cond.delivery_schedule(segs));
    assert!(!sched.dropped.is_empty(), "3% loss over 390 segments");
    let arrivals = sched.apply(segs);

    // Session level: every accepted arrival is processed, gaps become
    // `lost`, and late arrivals behind a forced watermark are typed.
    let mut s = session(m, w, opts(Some(4)), segs);
    let mut late = 0usize;
    for seg in &arrivals {
        match s.push_arrival(seg) {
            Ok(_) => {}
            Err(SkyError::LateSegment { .. }) => late += 1,
            Err(e) => panic!("only lateness may reject an arrival, got {e}"),
        }
    }
    s.flush_reorder_gate().expect("drain");
    let stats = s.reorder_stats();
    assert!(stats.lost > 0, "unfilled gaps must be accounted as lost");
    assert!(stats.held_peak <= 4 + 1, "holds never exceed the window");
    assert_eq!(s.segments_pushed(), arrivals.len() - late);
    let _ = s.finish();

    // Runtime level: the same hostile schedule completes end to end.
    let mut rt = IngestRuntime::new(config(2, None));
    let id = rt
        .open_stream("cam-0".to_string(), m, w, opts(Some(4)))
        .expect("admission");
    for seg in &arrivals {
        match rt.push(id, seg) {
            Ok(()) | Err(SkyError::LateSegment { .. }) => {}
            Err(e) => panic!("only lateness may reject an arrival, got {e}"),
        }
    }
    let out = rt.finish().expect("finish never deadlocks on loss");
    assert_eq!(out.streams.len(), 1);
}

#[test]
fn rolling_churn_runs_are_seed_reproducible() {
    let (w, m, segs) = fixture();
    // Sessions disconnect and reconnect on a seeded churn schedule; each
    // connected interval replays a slice of the stream as a fresh open.
    let churn = churn_intervals(780.0, 120.0, 60.0, chaos_seed());
    assert_eq!(churn, churn_intervals(780.0, 120.0, 60.0, chaos_seed()));
    let run = || -> MultiOutcome {
        let mut rt = IngestRuntime::new(config(2, None));
        for (i, &(up, down)) in churn.iter().enumerate() {
            let id = rt
                .open_stream(format!("cam-{i}"), m, w, opts(Some(4)))
                .expect("reconnect admission");
            let (a, b) = ((up / 2.0) as usize, (down / 2.0) as usize);
            for s in &segs[a..b.min(segs.len())] {
                rt.push(id, s).expect("push");
            }
            rt.close_stream(id).expect("disconnect");
        }
        rt.finish().expect("finish")
    };
    assert_multi_outcomes_bitwise_equal("same churn seed, same bits", &run(), &run());
}

proptest! {
    /// For random seeds and impairment levels, a lossless schedule whose
    /// worst displacement fits the gate window is bitwise invisible: the
    /// degraded session run matches the in-order run, with nothing lost.
    #[test]
    fn within_window_reorder_is_bitwise_invisible(
        seed in 0u64..1_000_000,
        len in 60usize..160,
        jitter in 0.5f64..8.0,
        reorder in 0.0f64..0.3,
    ) {
        let (w, m, pool) = fixture();
        let segs = &pool[..len];
        let cond = NetConditions {
            base_delay_secs: 0.05,
            jitter_secs: jitter,
            drop_prob: 0.0,
            reorder_prob: reorder,
            reorder_span: 4,
            bandwidth: Vec::new(),
            seed,
        };
        let sched = pin_first(cond.delivery_schedule(segs));
        prop_assert!(sched.dropped.is_empty());
        prop_assert_eq!(sched.fingerprint(), pin_first(cond.delivery_schedule(segs)).fingerprint());
        let window = sched.max_displacement().max(1);
        let options = opts(Some(window));

        let mut in_order = session(m, w, options.clone(), segs);
        for s in segs {
            in_order.push_arrival(s).expect("in-order arrival");
        }

        let mut degraded = session(m, w, options, segs);
        for s in &sched.apply(segs) {
            degraded.push_arrival(s).expect("within-window arrival");
        }
        prop_assert_eq!(degraded.reorder_held(), 0, "full delivery drains the gate");
        prop_assert_eq!(degraded.reorder_stats().lost, 0);

        assert_outcomes_bitwise_equal(
            "within-window reorder",
            &in_order.finish(),
            &degraded.finish(),
        );
    }
}
