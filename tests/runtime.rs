//! Determinism and churn tests for the sharded ingest runtime.
//!
//! The acceptance bar of the `skyscraper::runtime` subsystem: for **any
//! shard count**, the runtime's per-stream outcomes are **bitwise
//! identical** to driving the sequential `MultiStreamServer` round-robin
//! over the same segments with the same churn points — including mid-run
//! `open_stream` / `close_stream`. The shard count used as "max" can be
//! overridden with `VETL_SHARDS` (CI runs the property at two distinct
//! counts).

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use vetl::prelude::*;
use vetl::skyscraper::offline::run_offline;
use vetl::skyscraper::testkit::{assert_multi_outcomes_bitwise_equal, ToyWorkload};
use vetl::skyscraper::{FittedModel, MultiOutcome};
use vetl::workloads::NetConditions;

const SHARED_BUDGET_USD: f64 = 0.5;
const REPLAN_SECS: f64 = 1_800.0;
/// Segments per epoch at 2 s segments and the 1800 s cadence.
const QUOTA: usize = 900;
const SEED: u64 = 9;
const TOTAL_CORES: f64 = 16.0;

fn max_shards() -> usize {
    std::env::var("VETL_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// Independently fitted streams over distinct content processes, plus
/// 2 hours of online video each.
fn fixture() -> &'static Vec<(ToyWorkload, FittedModel, Vec<Segment>)> {
    static FIXTURE: OnceLock<Vec<(ToyWorkload, FittedModel, Vec<Segment>)>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        (0..4u64)
            .map(|v| {
                let w = ToyWorkload::new();
                let mut cam =
                    SyntheticCamera::new(ContentParams::traffic_intersection(23 + v), 2.0);
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
                let online = Recording::record(&mut cam, 2.0 * 3_600.0)
                    .segments()
                    .to_vec();
                (w, model, online)
            })
            .collect()
    })
}

/// One churn schedule: which fixture streams open at which round, which
/// handles close at which round, and how many rounds to drive in total.
#[derive(Debug, Clone)]
struct Schedule {
    /// `(round, fixture_index, push_limit)` — admit the stream at `round`
    /// and feed it at most `push_limit` of its segments.
    opens: Vec<(usize, usize, usize)>,
    /// `(round, handle_index)` — close the handle-`index`-th opened stream.
    closes: Vec<(usize, usize)>,
    rounds: usize,
}

/// Both implementations behind one driving interface.
trait Driver<'a> {
    fn open(&mut self, id: String, model: &'a FittedModel, workload: &'a ToyWorkload) -> StreamId;
    fn push(&mut self, id: StreamId, seg: &Segment);
    fn close(&mut self, id: StreamId);
    fn done(self) -> MultiOutcome;
}

struct Sequential<'a>(MultiStreamServer<'a>);

impl<'a> Driver<'a> for Sequential<'a> {
    fn open(&mut self, id: String, model: &'a FittedModel, workload: &'a ToyWorkload) -> StreamId {
        self.0
            .open_stream(id, model, workload, IngestOptions::default())
            .expect("admission")
    }
    fn push(&mut self, id: StreamId, seg: &Segment) {
        self.0.push(id, seg).expect("sequential push");
    }
    fn close(&mut self, id: StreamId) {
        self.0.close_stream(id).expect("sequential close");
    }
    fn done(self) -> MultiOutcome {
        self.0.finish()
    }
}

struct Sharded<'a>(IngestRuntime<'a>);

impl<'a> Driver<'a> for Sharded<'a> {
    fn open(&mut self, id: String, model: &'a FittedModel, workload: &'a ToyWorkload) -> StreamId {
        self.0
            .open_stream(id, model, workload, IngestOptions::default())
            .expect("admission")
    }
    fn push(&mut self, id: StreamId, seg: &Segment) {
        // Balanced round-robin driving never overloads a mailbox: the
        // epoch dispatches on the push that completes the last quota.
        self.0.push(id, seg).expect("runtime push");
    }
    fn close(&mut self, id: StreamId) {
        self.0.close_stream(id).expect("runtime close");
    }
    fn done(self) -> MultiOutcome {
        self.0.finish().expect("runtime finish")
    }
}

/// Drive a schedule: apply churn ops at round boundaries, then push one
/// segment of every open stream per round (round-robin). Streams whose
/// segments run out are closed so they stop gating the epoch barrier.
fn run_schedule<'a, D: Driver<'a>>(mut driver: D, schedule: &Schedule) -> MultiOutcome {
    let streams = fixture();
    // (handle, segments, cursor, open)
    let mut handles: Vec<(StreamId, &'a [Segment], usize, bool)> = Vec::new();
    for round in 0..schedule.rounds {
        for &(at, fixture_idx, limit) in &schedule.opens {
            if at == round {
                let (w, m, segs) = &streams[fixture_idx];
                let id = driver.open(format!("cam-{fixture_idx}"), m, w);
                handles.push((id, &segs[..limit.min(segs.len())], 0, true));
            }
        }
        for &(at, handle_idx) in &schedule.closes {
            if at == round && handles[handle_idx].3 {
                driver.close(handles[handle_idx].0);
                handles[handle_idx].3 = false;
            }
        }
        for h in &mut handles {
            if !h.3 {
                continue;
            }
            match h.1.get(h.2) {
                Some(seg) => {
                    driver.push(h.0, seg);
                    h.2 += 1;
                }
                None => {
                    driver.close(h.0);
                    h.3 = false;
                }
            }
        }
    }
    driver.done()
}

fn sequential(schedule: &Schedule) -> MultiOutcome {
    let server = MultiStreamServer::new(SHARED_BUDGET_USD, CostModel::default(), SEED)
        .with_replan_interval(REPLAN_SECS)
        .with_total_cores(TOTAL_CORES);
    run_schedule(Sequential(server), schedule)
}

fn sharded(schedule: &Schedule, shards: usize) -> MultiOutcome {
    let rt = IngestRuntime::new(RuntimeConfig {
        shards,
        shared_cloud_budget_usd: SHARED_BUDGET_USD,
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(TOTAL_CORES),
        ..RuntimeConfig::default()
    });
    run_schedule(Sharded(rt), schedule)
}

fn assert_runtime_matches_server(schedule: &Schedule) {
    let reference = sequential(schedule);
    let mut counts = vec![1, 2, max_shards()];
    counts.sort_unstable();
    counts.dedup();
    for shards in counts {
        let out = sharded(schedule, shards);
        assert_multi_outcomes_bitwise_equal(&format!("shards={shards}"), &reference, &out);
    }
}

#[test]
fn runtime_matches_server_bitwise_without_churn() {
    let schedule = Schedule {
        opens: vec![(0, 0, 2 * QUOTA + 450), (0, 1, 2 * QUOTA + 450)],
        closes: vec![],
        rounds: 2 * QUOTA + 450,
    };
    assert_runtime_matches_server(&schedule);
}

#[test]
fn runtime_matches_server_bitwise_under_mid_run_churn() {
    // Stream 2 joins mid-epoch, stream 1 closes mid-epoch, stream 0 runs
    // out before the end: admissions, closures, and exhaustion all land
    // inside epochs, not just on their boundaries.
    let schedule = Schedule {
        opens: vec![
            (0, 0, 2 * QUOTA),
            (0, 1, 2 * QUOTA + 300),
            (QUOTA + 137, 2, QUOTA + 400),
        ],
        closes: vec![(QUOTA + 600, 1)],
        rounds: 2 * QUOTA + 500,
    };
    assert_runtime_matches_server(&schedule);
}

#[test]
fn runtime_matches_server_bitwise_with_boundary_churn() {
    // Churn exactly at epoch boundaries: a closure right when a full epoch
    // completed (the close marker leads the next epoch's mailbox) and an
    // admission at the same kind of point.
    let schedule = Schedule {
        opens: vec![
            (0, 0, 3 * QUOTA),
            (0, 1, 3 * QUOTA),
            (2 * QUOTA, 3, QUOTA / 2),
        ],
        closes: vec![(QUOTA, 1)],
        rounds: 3 * QUOTA,
    };
    assert_runtime_matches_server(&schedule);
}

/// Randomized churn property: for any admission round, closure round and
/// stream lengths, every shard count reproduces the sequential server bit
/// for bit. Hand-rolled sampling (4 deterministic cases) because each case
/// drives three full serving runs.
#[test]
fn runtime_is_bitwise_equal_for_any_shard_count() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..4 {
        let open_at = rng.gen_range(1..(2 * QUOTA));
        let close_at = rng.gen_range(1..(2 * QUOTA));
        let len_a = rng.gen_range((QUOTA + 10)..(2 * QUOTA + 300));
        let len_c = rng.gen_range(200..(QUOTA + 200));
        let shards = rng.gen_range(2..6);
        let schedule = Schedule {
            opens: vec![(0, 0, len_a), (0, 1, 2 * QUOTA + 200), (open_at, 2, len_c)],
            closes: vec![(close_at, 0)],
            rounds: 2 * QUOTA + 200,
        };
        let reference = sequential(&schedule);
        let one = sharded(&schedule, 1);
        let many = sharded(&schedule, shards);
        assert_multi_outcomes_bitwise_equal(&format!("case {case}: shards=1"), &reference, &one);
        assert_multi_outcomes_bitwise_equal(
            &format!("case {case}: shards={shards} ({schedule:?})"),
            &reference,
            &many,
        );
    }
}

#[test]
fn rejected_mid_epoch_admission_preserves_bitwise_equivalence() {
    // Regression: a rejected admission flushes queued input (a *partial*
    // epoch) before validating. The runtime must then bound the mailboxes
    // to the remaining epoch quota, or the next dispatch overshoots the
    // epoch and replans later than the sequential server.
    let streams = fixture();
    let tight_cores = 2.0; // 2 streams fit; a third gets ⌊2/3⌋ = 0 cores
    let drive = |rt: &mut dyn FnMut(usize, &Segment)| {
        // returns nothing; rt is fed (stream v, segment) round-robin
        for i in 0..2 * QUOTA + 137 {
            for (v, (_, _, segs)) in streams.iter().take(2).enumerate() {
                rt(v, &segs[i]);
            }
        }
    };

    // Sequential reference.
    let mut server = MultiStreamServer::new(SHARED_BUDGET_USD, CostModel::default(), SEED)
        .with_replan_interval(REPLAN_SECS)
        .with_total_cores(tight_cores);
    let ids: Vec<StreamId> = streams
        .iter()
        .take(2)
        .enumerate()
        .map(|(v, (w, m, _))| {
            server
                .open_stream(format!("cam-{v}"), m, w, IngestOptions::default())
                .expect("admission")
        })
        .collect();
    let mut rejected = 0;
    let mut round = 0usize;
    drive(&mut |v, seg| {
        if v == 0 && round == 137 {
            // Mid-epoch: this admission must be rejected on both sides.
            let (w2, m2, _) = &streams[2];
            let err = server
                .open_stream("late", m2, w2, IngestOptions::default())
                .unwrap_err();
            assert!(matches!(err, SkyError::UnderProvisioned { .. }));
            rejected += 1;
        }
        server.push(ids[v], seg).expect("push");
        if v == 1 {
            round += 1;
        }
    });
    assert_eq!(rejected, 1);
    let reference = server.finish();

    for shards in [1, 3] {
        let mut rt = IngestRuntime::new(RuntimeConfig {
            shards,
            shared_cloud_budget_usd: SHARED_BUDGET_USD,
            seed: SEED,
            replan_interval_secs: Some(REPLAN_SECS),
            total_cores: Some(tight_cores),
            ..RuntimeConfig::default()
        });
        let ids: Vec<StreamId> = streams
            .iter()
            .take(2)
            .enumerate()
            .map(|(v, (w, m, _))| {
                rt.open_stream(format!("cam-{v}"), m, w, IngestOptions::default())
                    .expect("admission")
            })
            .collect();
        let mut round = 0usize;
        drive(&mut |v, seg| {
            if v == 0 && round == 137 {
                let (w2, m2, _) = &streams[2];
                let err = rt
                    .open_stream("late", m2, w2, IngestOptions::default())
                    .unwrap_err();
                assert!(matches!(err, SkyError::UnderProvisioned { .. }));
            }
            rt.push(ids[v], seg).expect("push");
            if v == 1 {
                round += 1;
            }
        });
        let out = rt.finish().expect("finish");
        assert_multi_outcomes_bitwise_equal(
            &format!("rejected admission, shards={shards}"),
            &reference,
            &out,
        );
    }
}

// ---- Runtime-specific behaviors beyond the equivalence bar. ----

#[test]
fn overloaded_mailbox_is_typed_backpressure() {
    let streams = fixture();
    let (w0, m0, s0) = &streams[0];
    let (w1, m1, _) = &streams[1];
    let mut rt = IngestRuntime::new(RuntimeConfig {
        shards: 2,
        shared_cloud_budget_usd: SHARED_BUDGET_USD,
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(TOTAL_CORES),
        ..RuntimeConfig::default()
    });
    let a = rt
        .open_stream("a", m0, w0, IngestOptions::default())
        .unwrap();
    let _b = rt
        .open_stream("b", m1, w1, IngestOptions::default())
        .unwrap();

    // Feed only stream a: the epoch cannot dispatch while b lags, so a's
    // mailbox fills to exactly one epoch quota and then pushes back.
    for seg in &s0[..QUOTA] {
        rt.push(a, seg).expect("within the epoch bound");
    }
    let err = rt.push(a, &s0[QUOTA]).unwrap_err();
    assert_eq!(
        err,
        SkyError::Overloaded {
            stream: a.index(),
            queued: QUOTA,
            capacity: QUOTA,
        }
    );
    let m = rt.metrics();
    assert_eq!(m.streams[a.index()].lag_segments, QUOTA, "lag is visible");
    assert_eq!(m.segments_processed, 0, "nothing dispatched while b lags");
}

#[test]
fn closing_mid_epoch_redistributes_shares_in_the_next_joint_plan() {
    let streams = fixture();
    let mut rt = IngestRuntime::new(RuntimeConfig {
        shards: 2,
        shared_cloud_budget_usd: 0.6,
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(TOTAL_CORES),
        ..RuntimeConfig::default()
    });
    let ids: Vec<StreamId> = streams
        .iter()
        .take(3)
        .enumerate()
        .map(|(v, (w, m, _))| {
            rt.open_stream(format!("cam-{v}"), m, w, IngestOptions::default())
                .expect("admission")
        })
        .collect();

    let before = rt.last_joint_plan().expect("admission planned").clone();
    assert_eq!(before.streams, vec![0, 1, 2]);
    assert!((before.lease_usd - 0.2).abs() < 1e-12, "0.6 / 3 streams");
    assert_eq!(before.fair_cores, (TOTAL_CORES / 3.0).floor());

    // Half an epoch in, stream 1 leaves; the others complete the epoch and
    // the next barrier replans over the survivors only.
    for i in 0..QUOTA {
        for (v, id) in ids.iter().enumerate() {
            if v == 1 && i == QUOTA / 2 {
                rt.close_stream(*id).expect("close");
            }
            if v == 1 && i >= QUOTA / 2 {
                continue;
            }
            rt.push(*id, &streams[v].2[i]).expect("push");
        }
    }
    // The barrier fires lazily with the next epoch's dispatch: feed a full
    // second epoch to the survivors.
    for i in QUOTA..2 * QUOTA {
        rt.push(ids[0], &streams[0].2[i]).expect("next epoch");
        rt.push(ids[2], &streams[2].2[i]).expect("next epoch");
    }

    let after = rt.last_joint_plan().expect("barrier planned").clone();
    assert_eq!(after.streams, vec![0, 2], "closed stream left the plan");
    assert!((after.lease_usd - 0.3).abs() < 1e-12, "0.6 / 2 streams");
    assert_eq!(after.fair_cores, (TOTAL_CORES / 2.0).floor());
    assert!(
        after.fair_cores > before.fair_cores,
        "released cores are redistributed"
    );

    let out = rt.finish().expect("finish");
    assert_eq!(out.streams.len(), 3, "closed streams keep their outcome");
    assert_eq!(out.streams[1].outcome.segments, QUOTA / 2);
}

#[test]
fn metrics_snapshot_reports_streams_and_throughput() {
    let streams = fixture();
    let (w0, m0, s0) = &streams[0];
    let (w1, m1, s1) = &streams[1];
    let mut rt = IngestRuntime::new(RuntimeConfig {
        shards: 2,
        shared_cloud_budget_usd: SHARED_BUDGET_USD,
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(TOTAL_CORES),
        ..RuntimeConfig::default()
    });
    let a = rt
        .open_stream("a", m0, w0, IngestOptions::default())
        .unwrap();
    let b = rt
        .open_stream("b", m1, w1, IngestOptions::default())
        .unwrap();
    for i in 0..QUOTA + 100 {
        rt.push(a, &s0[i]).unwrap();
        rt.push(b, &s1[i]).unwrap();
    }
    let m = rt.metrics();
    assert_eq!(m.shards, 2);
    assert_eq!(m.epoch, 2, "two admission barriers; the next is still lazy");
    assert_eq!(m.segments_processed, 2 * QUOTA, "one full epoch dispatched");
    assert_eq!(m.streams.len(), 2);
    for s in &m.streams {
        assert!(s.active);
        assert_eq!(s.segments_processed, QUOTA);
        assert_eq!(s.lag_segments, 100, "second epoch is queueing");
        assert_eq!(s.overflows, 0);
    }
    assert!(m.segs_per_sec > 0.0);
    assert!(m.wallet_left_usd <= SHARED_BUDGET_USD + 1e-9);
    assert!(m.total_cloud_usd() >= 0.0);

    rt.close_stream(a).unwrap();
    rt.close_stream(b).unwrap();
    let out = rt.finish().expect("finish");
    assert_eq!(out.streams.len(), 2);
    for s in &out.streams {
        assert_eq!(s.outcome.segments, QUOTA + 100);
        assert_eq!(s.outcome.overflows, 0);
    }
}

#[test]
fn runtime_rejects_unknown_closed_and_under_provisioned_streams() {
    let streams = fixture();
    let (w0, m0, s0) = &streams[0];
    let (w1, m1, _) = &streams[1];
    let mut rt = IngestRuntime::new(RuntimeConfig {
        shards: 1,
        total_cores: Some(1.0),
        replan_interval_secs: Some(REPLAN_SECS),
        ..RuntimeConfig::default()
    });
    let a = rt
        .open_stream("a", m0, w0, IngestOptions::default())
        .unwrap();
    // A second stream would shrink the fair share to ⌊1/2⌋ = 0 cores.
    let err = rt
        .open_stream("b", m1, w1, IngestOptions::default())
        .unwrap_err();
    assert!(matches!(err, SkyError::UnderProvisioned { .. }));
    assert_eq!(rt.n_streams(), 1);

    // Forge an id that was never admitted *here* by opening two streams on
    // a separate runtime (ids are admission-order slot indices).
    let mut rt2 = IngestRuntime::new(RuntimeConfig::default());
    let _ = rt2
        .open_stream("x", m0, w0, IngestOptions::default())
        .unwrap();
    let foreign = rt2
        .open_stream("y", m1, w1, IngestOptions::default())
        .unwrap();
    assert_eq!(
        rt.push(foreign, &s0[0]).unwrap_err(),
        SkyError::UnknownStream { id: 1 }
    );
    rt.close_stream(a).unwrap();
    assert_eq!(
        rt.push(a, &s0[0]).unwrap_err(),
        SkyError::StreamClosed { id: a.index() }
    );
    assert_eq!(
        rt.close_stream(a).unwrap_err(),
        SkyError::StreamClosed { id: a.index() }
    );
}

// ---- Batched ingest: `push_batch` == the per-segment `push` loop. ----

/// A fresh per-process, per-thread durability directory.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vetl-runtime-wal-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch_runtime(shards: usize, dir: Option<&PathBuf>) -> IngestRuntime<'static> {
    IngestRuntime::new(RuntimeConfig {
        shards,
        shared_cloud_budget_usd: SHARED_BUDGET_USD,
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(TOTAL_CORES),
        durability: dir.map(|d| DurabilityConfig {
            dir: d.clone(),
            // Journal-only durability: recovery must replay the fused
            // SegBatch records, not shortcut through a snapshot.
            checkpoint_every_epochs: 0,
        }),
        ..RuntimeConfig::default()
    })
}

/// Per-segment reference: two streams, round-robin, `serve` segments each.
fn loop_reference(serve: usize) -> MultiOutcome {
    let streams = fixture();
    let mut rt = batch_runtime(2, None);
    let a = rt
        .open_stream(
            "cam-0",
            &streams[0].1,
            &streams[0].0,
            IngestOptions::default(),
        )
        .expect("admission");
    let b = rt
        .open_stream(
            "cam-1",
            &streams[1].1,
            &streams[1].0,
            IngestOptions::default(),
        )
        .expect("admission");
    for i in 0..serve {
        rt.push(a, &streams[0].2[i]).expect("push");
        rt.push(b, &streams[1].2[i]).expect("push");
    }
    rt.close_stream(a).expect("close");
    rt.close_stream(b).expect("close");
    rt.finish().expect("finish")
}

#[test]
fn runtime_push_batch_matches_push_loop_bitwise_across_barriers() {
    let streams = fixture();
    let serve = 3 * QUOTA;
    let reference = loop_reference(serve);

    let mut rt = batch_runtime(2, None);
    let a = rt
        .open_stream(
            "cam-0",
            &streams[0].1,
            &streams[0].0,
            IngestOptions::default(),
        )
        .expect("admission");
    let b = rt
        .open_stream(
            "cam-1",
            &streams[1].1,
            &streams[1].0,
            IngestOptions::default(),
        )
        .expect("admission");
    let s0 = &streams[0].2;
    let s1 = &streams[1].2;

    rt.push_batch(a, &[]).expect("empty batch is a no-op");
    assert_eq!(rt.mailbox_room(a).expect("room"), QUOTA);

    // Epoch 0: `a` in two uneven chunks, then one `b` batch that *straddles
    // the epoch barrier* — it completes the epoch mid-call (dispatching and
    // replanning inside push_batch) and spills 300 segments into epoch 1.
    rt.push_batch(a, &s0[..613]).expect("chunk");
    assert_eq!(rt.mailbox_room(a).expect("room"), QUOTA - 613);
    rt.push_batch(a, &s0[613..QUOTA]).expect("chunk");
    rt.push_batch(b, &s1[..QUOTA + 300])
        .expect("straddling batch");
    assert_eq!(rt.metrics().epoch, 2, "the barrier fired mid-batch");

    // Epoch 1: exact-quota batch for `a`, another straddling batch for `b`.
    rt.push_batch(a, &s0[QUOTA..2 * QUOTA]).expect("chunk");
    rt.push_batch(b, &s1[QUOTA + 300..2 * QUOTA + 100])
        .expect("straddling batch");

    // Epoch 2: the remainders.
    rt.push_batch(a, &s0[2 * QUOTA..serve]).expect("chunk");
    rt.push_batch(b, &s1[2 * QUOTA + 100..serve])
        .expect("chunk");

    rt.close_stream(a).expect("close");
    rt.close_stream(b).expect("close");
    let out = rt.finish().expect("finish");
    assert_multi_outcomes_bitwise_equal("push_batch == push loop", &reference, &out);

    // The same property on a reorder-gated stream: a within-window degraded
    // arrival order, fed in seeded slice lengths from 1 to 64, matches the
    // per-segment loop over the same arrivals, and both match the in-order
    // run — gate releases fill to the epoch room and dispatch exactly where
    // the in-order pushes do.
    let cond = NetConditions {
        drop_prob: 0.0,
        ..NetConditions::hostile(2.0, SEED)
    };
    let mut sched = cond.delivery_schedule(&s0[..serve]);
    let head = sched.order.iter().position(|&p| p == 0).expect("lossless");
    sched.order[..=head].rotate_right(1); // the stream head anchors the gate
    assert!(!sched.is_clean(), "hostile conditions must reorder");
    let window = sched.max_displacement();
    let arrivals = sched.apply(&s0[..serve]);
    let mut lens = (0u64..).map(|i| 1 + ((i * i * 2_654_435_761) >> 7) as usize % 64);
    let sliced = gated_run(window, &arrivals, &mut lens);
    let per_segment = gated_run(window, &arrivals, &mut std::iter::repeat(1));
    let in_order = gated_run(window, &s0[..serve], &mut std::iter::repeat(1));
    assert_multi_outcomes_bitwise_equal("gated slices == gated loop", &per_segment, &sliced);
    assert_multi_outcomes_bitwise_equal("gated slices == in-order run", &in_order, &sliced);
}

/// Stream 0 behind a reorder gate, fed `arrivals` in slices of the given
/// lengths (`push` for length 1, `push_batch` otherwise); stream 1 ungated
/// and kept one full epoch ahead, so a gate release that fills the epoch
/// always finds its sibling ready and never has to overshoot the quota.
fn gated_run(
    window: usize,
    arrivals: &[Segment],
    lens: &mut dyn Iterator<Item = usize>,
) -> MultiOutcome {
    let streams = fixture();
    let mut rt = batch_runtime(2, None);
    let gated = IngestOptions {
        reorder_window: Some(window),
        ..IngestOptions::default()
    };
    let a = rt
        .open_stream("cam-0", &streams[0].1, &streams[0].0, gated)
        .expect("admission");
    let b = rt
        .open_stream(
            "cam-1",
            &streams[1].1,
            &streams[1].0,
            IngestOptions::default(),
        )
        .expect("admission");
    let mut ahead = streams[1].2[..arrivals.len()].chunks(QUOTA);
    let mut rest = arrivals;
    while !rest.is_empty() {
        if rt.mailbox_room(b).expect("room") == QUOTA {
            if let Some(epoch) = ahead.next() {
                rt.push_batch(b, epoch).expect("sibling epoch");
            }
        }
        let (slice, tail) = rest.split_at(lens.next().expect("endless").min(rest.len()));
        match slice {
            [seg] => rt.push(a, seg).expect("arrival"),
            _ => rt.push_batch(a, slice).expect("arrivals"),
        }
        rest = tail;
    }
    rt.close_stream(a).expect("close");
    rt.close_stream(b).expect("close");
    rt.finish().expect("finish")
}

#[test]
fn push_batch_overload_mid_batch_is_typed_and_keeps_the_accepted_prefix() {
    let streams = fixture();
    let serve = 2 * QUOTA;
    let reference = loop_reference(serve);

    let mut rt = batch_runtime(2, None);
    let a = rt
        .open_stream(
            "cam-0",
            &streams[0].1,
            &streams[0].0,
            IngestOptions::default(),
        )
        .expect("admission");
    let b = rt
        .open_stream(
            "cam-1",
            &streams[1].1,
            &streams[1].0,
            IngestOptions::default(),
        )
        .expect("admission");
    let s0 = &streams[0].2;
    let s1 = &streams[1].2;

    // `b` lags, so the epoch cannot dispatch: a batch larger than one epoch
    // quota accepts exactly the quota and then fails typed, exactly where
    // the per-segment loop's next push would have failed.
    let err = rt.push_batch(a, &s0[..QUOTA + 10]).unwrap_err();
    match err {
        SkyError::BatchFailed { accepted, source } => {
            assert_eq!(accepted, QUOTA, "the quota prefix was accepted");
            assert_eq!(
                *source,
                SkyError::Overloaded {
                    stream: a.index(),
                    queued: QUOTA,
                    capacity: QUOTA,
                }
            );
        }
        other => panic!("expected BatchFailed, got {other}"),
    }
    assert_eq!(rt.metrics().streams[a.index()].lag_segments, QUOTA);
    assert_eq!(rt.mailbox_room(a).expect("room"), 0);

    // A full mailbox rejects immediately with an empty accepted prefix —
    // through either entry, since capacity is checked in one place — and
    // queues nothing.
    let err = rt.push_batch(a, &s0[QUOTA..QUOTA + 1]).unwrap_err();
    assert!(
        matches!(err, SkyError::BatchFailed { accepted: 0, ref source }
            if matches!(**source, SkyError::Overloaded { .. })),
        "{err}"
    );
    assert_eq!(
        rt.push(a, &s0[QUOTA]).unwrap_err(),
        SkyError::Overloaded {
            stream: a.index(),
            queued: QUOTA,
            capacity: QUOTA,
        }
    );
    assert_eq!(rt.metrics().streams[a.index()].lag_segments, QUOTA);

    // Resume from the accepted prefix — never re-feed it — and the run is
    // bitwise identical to the clean per-segment loop. Capacity bounds
    // segments only: the close marker is accepted into a full mailbox.
    rt.push_batch(b, &s1[..QUOTA]).expect("sibling catches up");
    rt.push_batch(a, &s0[QUOTA..serve]).expect("next epoch");
    assert_eq!(rt.metrics().streams[a.index()].lag_segments, QUOTA);
    rt.close_stream(a).expect("close at capacity");
    assert_eq!(rt.metrics().streams[a.index()].lag_segments, QUOTA);
    rt.push_batch(b, &s1[QUOTA..serve]).expect("next epoch");
    rt.close_stream(b).expect("close");
    let out = rt.finish().expect("finish");
    assert_multi_outcomes_bitwise_equal("overloaded batch leaves no trace", &reference, &out);
}

#[test]
fn push_batch_rejects_invalid_closed_and_unknown_streams_mid_batch() {
    let streams = fixture();
    let mut rt = batch_runtime(2, None);
    let a = rt
        .open_stream(
            "cam-0",
            &streams[0].1,
            &streams[0].0,
            IngestOptions::default(),
        )
        .expect("admission");
    let _b = rt
        .open_stream(
            "cam-1",
            &streams[1].1,
            &streams[1].0,
            IngestOptions::default(),
        )
        .expect("admission");
    let s0 = &streams[0].2;

    // An invalid segment mid-batch: the valid prefix is accepted (queued,
    // journaled), the batch fails typed at the offender.
    let mut batch: Vec<Segment> = s0[..10].to_vec();
    batch[5].duration = f64::NAN;
    let err = rt.push_batch(a, &batch).unwrap_err();
    assert!(
        matches!(err, SkyError::BatchFailed { accepted: 5, ref source }
            if matches!(**source, SkyError::InvalidInput { .. })),
        "{err}"
    );
    assert_eq!(rt.metrics().streams[a.index()].lag_segments, 5);

    // A batch after a queued in-band close marker is rejected whole: the
    // stream is settling after the segments pushed *before* the marker.
    rt.close_stream(a).expect("close");
    let err = rt.push_batch(a, &s0[5..8]).unwrap_err();
    assert!(
        matches!(err, SkyError::BatchFailed { accepted: 0, ref source }
            if matches!(**source, SkyError::StreamClosed { .. })),
        "{err}"
    );
    assert!(matches!(
        rt.mailbox_room(a),
        Err(SkyError::StreamClosed { .. })
    ));

    // Unknown streams are typed the same way the per-segment push types them.
    let mut rt2 = IngestRuntime::new(RuntimeConfig::default());
    let _ = rt2
        .open_stream("x", &streams[0].1, &streams[0].0, IngestOptions::default())
        .unwrap();
    let _ = rt2
        .open_stream("y", &streams[1].1, &streams[1].0, IngestOptions::default())
        .unwrap();
    let foreign = StreamId::from_index(3);
    let err = rt2.push_batch(foreign, &s0[..2]).unwrap_err();
    assert!(
        matches!(err, SkyError::BatchFailed { accepted: 0, ref source }
            if matches!(**source, SkyError::UnknownStream { id: 3 })),
        "{err}"
    );
    assert!(matches!(
        rt2.mailbox_room(foreign),
        Err(SkyError::UnknownStream { id: 3 })
    ));
}

#[test]
fn batched_ingest_wal_is_deterministic_and_replays_bitwise() {
    let streams = fixture();
    let serve = 3 * QUOTA;
    let reference = loop_reference(serve);
    let s0 = &streams[0].2;
    let s1 = &streams[1].2;

    // Drive the batched prefix (through a mid-epoch-2 crash point): two
    // straddling `b` batches, exact-quota `a` batches.
    let drive_prefix = |rt: &mut IngestRuntime<'static>| {
        let a = rt
            .open_stream(
                "cam-0",
                &streams[0].1,
                &streams[0].0,
                IngestOptions::default(),
            )
            .expect("admission");
        let b = rt
            .open_stream(
                "cam-1",
                &streams[1].1,
                &streams[1].0,
                IngestOptions::default(),
            )
            .expect("admission");
        rt.push_batch(a, &s0[..613]).expect("chunk");
        rt.push_batch(a, &s0[613..QUOTA]).expect("chunk");
        rt.push_batch(b, &s1[..QUOTA + 300]).expect("straddle");
        rt.push_batch(a, &s0[QUOTA..2 * QUOTA]).expect("chunk");
        rt.push_batch(b, &s1[QUOTA + 300..2 * QUOTA + 100])
            .expect("straddle");
    };

    // The fused SegBatch framing is deterministic: two identical batched
    // runs journal byte-identical files.
    let (dir1, dir2) = (tmp_dir("batch-a"), tmp_dir("batch-b"));
    {
        let mut rt = batch_runtime(2, Some(&dir1));
        drive_prefix(&mut rt);
        // Crash: dropped without finish().
    }
    {
        let mut rt = batch_runtime(2, Some(&dir2));
        drive_prefix(&mut rt);
    }
    let wal1 = std::fs::read(vetl::skyscraper::runtime::wal_path(&dir1)).expect("wal 1");
    let wal2 = std::fs::read(vetl::skyscraper::runtime::wal_path(&dir2)).expect("wal 2");
    assert_eq!(wal1, wal2, "batched WAL bytes are deterministic");
    let _ = std::fs::remove_dir_all(&dir2);

    // Recover from the batched journal (replaying SegBatch records through
    // push_batch), resume with batches, and finish: bitwise identical to
    // the uninterrupted per-segment loop. The recovery even changes the
    // shard count.
    let resolve = |slot: usize, id: &str| {
        assert_eq!(id, format!("cam-{slot}"));
        let (w, m, _) = &fixture()[slot];
        Some((m, w as &(dyn Workload + 'static)))
    };
    let (mut rt, report) = IngestRuntime::recover(
        RuntimeConfig {
            shards: 1,
            shared_cloud_budget_usd: SHARED_BUDGET_USD,
            seed: SEED,
            replan_interval_secs: Some(REPLAN_SECS),
            total_cores: Some(TOTAL_CORES),
            durability: Some(DurabilityConfig {
                dir: dir1.clone(),
                checkpoint_every_epochs: 0,
            }),
            ..RuntimeConfig::default()
        },
        &resolve,
    )
    .expect("recover");
    assert_eq!(report.replay_errors, 0);
    assert_eq!(
        report.streams[0].accepted_segments,
        2 * QUOTA,
        "every batched segment before the crash is durable"
    );
    assert_eq!(report.streams[1].accepted_segments, 2 * QUOTA + 100);

    let (a, b) = (StreamId::from_index(0), StreamId::from_index(1));
    rt.push_batch(a, &s0[2 * QUOTA..serve]).expect("resume");
    rt.push_batch(b, &s1[2 * QUOTA + 100..serve])
        .expect("resume");
    rt.close_stream(a).expect("close");
    rt.close_stream(b).expect("close");
    let out = rt.finish().expect("finish");
    assert_multi_outcomes_bitwise_equal("batched WAL replays bitwise", &reference, &out);
    let _ = std::fs::remove_dir_all(&dir1);
}

/// Re-frame every third 1-segment `Seg` record (kind 2) of a journal as the
/// 1-segment `SegBatch` (kind 7 with a count of 1) that earlier builds wrote
/// for every 1-segment batched push. Frames are `u32 len · u64 checksum ·
/// body`, bodies `u64 seq · u8 kind · u64 slot · [u64 count] · segments`.
/// Returns how many `Seg`, 1-segment and n-segment `SegBatch` records the
/// rewritten journal holds.
fn reframe_some_seg_records_as_one_segment_batches(wal: &Path) -> [usize; 3] {
    use vetl::skyscraper::offline::codec::checksum;
    let old = std::fs::read(wal).expect("read journal");
    let mut new = old[..8].to_vec();
    let mut shapes = [0usize; 3];
    let mut pos = 8;
    while pos < old.len() {
        let len = u32::from_le_bytes(old[pos..pos + 4].try_into().unwrap()) as usize;
        let mut body = old[pos + 12..pos + 12 + len].to_vec();
        pos += 12 + len;
        match body[8] {
            2 if (shapes[0] + shapes[1]) % 3 == 2 => {
                body[8] = 7;
                body.splice(17..17, 1u64.to_le_bytes());
                shapes[1] += 1;
            }
            2 => shapes[0] += 1,
            7 => {
                let n = u64::from_le_bytes(body[17..25].try_into().unwrap());
                shapes[if n == 1 { 1 } else { 2 }] += 1;
            }
            _ => {}
        }
        new.extend_from_slice(&(body.len() as u32).to_le_bytes());
        new.extend_from_slice(&checksum(&body).to_le_bytes());
        new.extend_from_slice(&body);
    }
    std::fs::write(wal, new).expect("rewrite journal");
    shapes
}

#[test]
fn journal_mixing_seg_and_segbatch_frames_recovers_like_the_all_seg_journal() {
    let streams = fixture();
    let (s0, s1) = (&streams[0].2, &streams[1].2);
    let (crash_at, serve) = (QUOTA + 350, 2 * QUOTA);
    // One schedule, journaled twice up to a mid-epoch crash: segment by
    // segment (all `Seg` frames), and with stream 1 in runs of 50 (fused
    // `SegBatch` frames) — then a third of the latter's `Seg` frames is
    // re-framed the way earlier builds wrote 1-segment batched pushes.
    let crashed = |dir: &PathBuf, run: usize| {
        let mut rt = batch_runtime(2, Some(dir));
        let open = |rt: &mut IngestRuntime<'static>, v: usize| {
            let id = format!("cam-{v}");
            rt.open_stream(id, &streams[v].1, &streams[v].0, IngestOptions::default())
                .expect("admission")
        };
        let (a, b) = (open(&mut rt, 0), open(&mut rt, 1));
        for at in (0..crash_at).step_by(run) {
            for seg in &s0[at..at + run] {
                rt.push(a, seg).expect("push");
            }
            rt.push_batch(b, &s1[at..at + run]).expect("push_batch");
        }
        // Crash: dropped without finish().
    };
    let (all_seg, mixed) = (tmp_dir("shapes-seg"), tmp_dir("shapes-mixed"));
    crashed(&all_seg, 1);
    crashed(&mixed, 50);
    let wal_path = vetl::skyscraper::runtime::wal_path;
    let shapes = reframe_some_seg_records_as_one_segment_batches(&wal_path(&mixed));
    assert_eq!(shapes, [834, 416, 25], "Seg / SegBatch(1) / SegBatch(50)");

    let recovered = |dir: &PathBuf| {
        let resolve = |slot: usize, _: &str| {
            let (w, m, _) = &fixture()[slot];
            Some((m, w as &(dyn Workload + 'static)))
        };
        let cfg = RuntimeConfig {
            shards: 2,
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                checkpoint_every_epochs: 0,
            }),
            ..RuntimeConfig::default()
        };
        let (mut rt, report) = IngestRuntime::recover(cfg, &resolve).expect("recover");
        assert_eq!(report.replay_errors, 0);
        assert_eq!(report.replayed_segments, 2 * crash_at);
        for (v, feed) in [s0, s1].into_iter().enumerate() {
            assert_eq!(report.streams[v].accepted_segments, crash_at);
            let id = StreamId::from_index(v);
            rt.push_batch(id, &feed[crash_at..serve]).expect("resume");
            rt.close_stream(id).expect("close");
        }
        let out = rt.finish().expect("finish");
        let _ = std::fs::remove_dir_all(dir);
        out
    };
    let from_all_seg = recovered(&all_seg);
    assert_multi_outcomes_bitwise_equal(
        "mixed frame shapes == all-Seg journal",
        &from_all_seg,
        &recovered(&mixed),
    );
    assert_multi_outcomes_bitwise_equal(
        "recovered == uninterrupted",
        &loop_reference(serve),
        &from_all_seg,
    );
}
