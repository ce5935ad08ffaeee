//! Determinism and churn tests for the sharded ingest runtime.
//!
//! The acceptance bar of the `skyscraper::runtime` subsystem: for **any
//! shard count**, the runtime's per-stream outcomes are **bitwise
//! identical** to driving the single-threaded `testkit::reference` (which
//! processes every push on arrival) round-robin over the same segments with
//! the same churn points — including mid-run `open_stream` /
//! `close_stream`. The shard count used as "max" can be overridden with
//! `VETL_SHARDS` (CI runs the property at two distinct counts). The
//! Appendix-D guarantees themselves — cadence replans, the shared wallet,
//! no overflows under admissions mid-serve — are checked on the runtime.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use vetl::prelude::*;
use vetl::skyscraper::offline::run_offline;
use vetl::skyscraper::runtime::MAILBOX_BATCH;
use vetl::skyscraper::testkit::reference::Reference;
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

/// One fitted stream and its online video.
type Fixture = (ToyWorkload, FittedModel, Vec<Segment>);

/// Independently fitted streams over distinct content processes, plus
/// 2 hours of online video each.
fn fixture() -> &'static Vec<Fixture> {
    static FIXTURE: OnceLock<Vec<Fixture>> = OnceLock::new();
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
/// handles close at which round, how many rounds to drive in total, and the
/// configuration and per-stream options both engines run it under.
#[derive(Debug, Clone)]
struct Schedule {
    /// `(round, fixture_index, push_limit)` — admit the stream at `round`
    /// and feed it at most `push_limit` of its segments.
    opens: Vec<(usize, usize, usize)>,
    /// `(round, handle_index)` — close the handle-`index`-th opened stream.
    closes: Vec<(usize, usize)>,
    rounds: usize,
    /// The shard count is set per run.
    cfg: RuntimeConfig,
    options: IngestOptions,
}

/// A schedule under the default configuration and options.
fn schedule(
    opens: Vec<(usize, usize, usize)>,
    closes: Vec<(usize, usize)>,
    rounds: usize,
) -> Schedule {
    Schedule {
        opens,
        closes,
        rounds,
        cfg: config(1, TOTAL_CORES),
        options: IngestOptions::default(),
    }
}

/// The runtime and its reference behind one driving interface.
trait Engine<'a> {
    fn open(
        &mut self,
        id: String,
        model: &'a FittedModel,
        workload: &'a ToyWorkload,
        options: IngestOptions,
    ) -> Result<StreamId, SkyError>;
    fn push(&mut self, id: StreamId, seg: &Segment);
    fn close(&mut self, id: StreamId);
    fn done(self) -> MultiOutcome;
}

impl<'a> Engine<'a> for Reference<'a> {
    fn open(
        &mut self,
        id: String,
        model: &'a FittedModel,
        workload: &'a ToyWorkload,
        options: IngestOptions,
    ) -> Result<StreamId, SkyError> {
        Reference::open(self, id, model, workload, options)
    }
    fn push(&mut self, id: StreamId, seg: &Segment) {
        Reference::push(self, id, seg).expect("reference push");
    }
    fn close(&mut self, id: StreamId) {
        Reference::close(self, id);
    }
    fn done(self) -> MultiOutcome {
        self.finish()
    }
}

struct Sharded<'a>(IngestRuntime<'a>);

impl<'a> Engine<'a> for Sharded<'a> {
    fn open(
        &mut self,
        id: String,
        model: &'a FittedModel,
        workload: &'a ToyWorkload,
        options: IngestOptions,
    ) -> Result<StreamId, SkyError> {
        self.0.open_stream(id, model, workload, options)
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
fn run_schedule<'a, D: Engine<'a>>(mut engine: D, schedule: &Schedule) -> MultiOutcome {
    let streams = fixture();
    // (handle, segments, cursor, open)
    let mut handles: Vec<(StreamId, &'a [Segment], usize, bool)> = Vec::new();
    for round in 0..schedule.rounds {
        for &(at, fixture_idx, limit) in &schedule.opens {
            if at == round {
                let (w, m, segs) = &streams[fixture_idx];
                let id = engine
                    .open(format!("cam-{fixture_idx}"), m, w, schedule.options.clone())
                    .expect("admission");
                handles.push((id, &segs[..limit.min(segs.len())], 0, true));
            }
        }
        for &(at, handle_idx) in &schedule.closes {
            if at == round && handles[handle_idx].3 {
                engine.close(handles[handle_idx].0);
                handles[handle_idx].3 = false;
            }
        }
        for h in &mut handles {
            if !h.3 {
                continue;
            }
            match h.1.get(h.2) {
                Some(seg) => {
                    engine.push(h.0, seg);
                    h.2 += 1;
                }
                None => {
                    engine.close(h.0);
                    h.3 = false;
                }
            }
        }
    }
    engine.done()
}

/// The configuration the runtime and the reference run under.
fn config(shards: usize, total_cores: f64) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        shared_cloud_budget_usd: SHARED_BUDGET_USD,
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(total_cores),
        ..RuntimeConfig::default()
    }
}

fn reference_run(schedule: &Schedule) -> MultiOutcome {
    run_schedule(Reference::new(&schedule.cfg), schedule)
}

fn sharded(schedule: &Schedule, shards: usize) -> MultiOutcome {
    let rt = IngestRuntime::new(RuntimeConfig {
        shards,
        ..schedule.cfg.clone()
    });
    run_schedule(Sharded(rt), schedule)
}

/// The reference's outcome, after checking every shard count against it.
fn assert_runtime_matches_reference(schedule: &Schedule) -> MultiOutcome {
    let reference = reference_run(schedule);
    let mut counts = vec![1, 2, max_shards()];
    counts.sort_unstable();
    counts.dedup();
    for shards in counts {
        let out = sharded(schedule, shards);
        assert_multi_outcomes_bitwise_equal(&format!("shards={shards}"), &reference, &out);
    }
    reference
}

#[test]
fn runtime_matches_reference_bitwise_without_churn() {
    let rounds = 2 * QUOTA + 450;
    assert_runtime_matches_reference(&schedule(
        vec![(0, 0, rounds), (0, 1, rounds)],
        vec![],
        rounds,
    ));
}

/// Stream 2 joins mid-epoch, stream 1 closes mid-epoch, stream 0 runs out
/// before the end: admissions, closures, and exhaustion all land inside
/// epochs, not just on their boundaries.
fn mid_run_churn() -> Schedule {
    schedule(
        vec![
            (0, 0, 2 * QUOTA),
            (0, 1, 2 * QUOTA + 300),
            (QUOTA + 137, 2, QUOTA + 400),
        ],
        vec![(QUOTA + 600, 1)],
        2 * QUOTA + 500,
    )
}

#[test]
fn runtime_matches_reference_bitwise_under_mid_run_churn() {
    assert_runtime_matches_reference(&mid_run_churn());
}

#[test]
fn runtime_matches_reference_bitwise_when_the_wallet_binds() {
    // Unbuffered sessions on 4 cores burst to the cloud whenever on-prem
    // work falls behind, and a $0.0005 wallet runs dry inside epochs: each
    // lease, its refill and its split over the active streams reach the
    // outcome bits, and the churn changes the split twice.
    let reference = assert_runtime_matches_reference(&Schedule {
        cfg: RuntimeConfig {
            shared_cloud_budget_usd: 0.0005,
            ..config(1, 4.0)
        },
        options: IngestOptions {
            enable_buffering: false,
            ..IngestOptions::default()
        },
        ..mid_run_churn()
    });
    assert!(reference.cloud_usd > 0.0, "the wallet must be drawn on");
}

#[test]
fn runtime_matches_reference_bitwise_with_boundary_churn() {
    // Churn exactly at epoch boundaries: a closure right when a full epoch
    // completed (the close marker leads the next epoch's mailbox) and an
    // admission at the same kind of point.
    assert_runtime_matches_reference(&schedule(
        vec![
            (0, 0, 3 * QUOTA),
            (0, 1, 3 * QUOTA),
            (2 * QUOTA, 3, QUOTA / 2),
        ],
        vec![(QUOTA, 1)],
        3 * QUOTA,
    ));
}

/// Randomized churn property: for any admission round, closure round and
/// stream lengths, every shard count reproduces the reference bit for bit.
/// Hand-rolled sampling (4 deterministic cases) because each case drives
/// three full serving runs.
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
        let schedule = schedule(
            vec![(0, 0, len_a), (0, 1, 2 * QUOTA + 200), (open_at, 2, len_c)],
            vec![(close_at, 0)],
            2 * QUOTA + 200,
        );
        let reference = reference_run(&schedule);
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

// ---- Epochs longer than a mailbox batch. ----

/// Segments per epoch at 2 s segments: three mailbox batches and a tail.
const LONG_QUOTA: usize = 3 * MAILBOX_BATCH + 77;

/// The four fixture models over 9 hours of fresh online video each — more
/// than two long epochs.
fn long_fixture() -> &'static Vec<Vec<Segment>> {
    static LONG: OnceLock<Vec<Vec<Segment>>> = OnceLock::new();
    LONG.get_or_init(|| {
        (0..4u64)
            .map(|v| {
                let mut cam =
                    SyntheticCamera::new(ContentParams::traffic_intersection(123 + v), 2.0);
                Recording::record(&mut cam, 9.0 * 3_600.0)
                    .segments()
                    .to_vec()
            })
            .collect()
    })
}

/// The default configuration at `quota`-segment epochs.
fn config_at_quota(shards: usize, quota: usize) -> RuntimeConfig {
    RuntimeConfig {
        replan_interval_secs: Some(2.0 * quota as f64),
        ..config(shards, TOTAL_CORES)
    }
}

/// One step of a long-epoch script; handles are numbered in open order.
#[derive(Debug, Clone, Copy)]
enum LongOp {
    /// Admit fixture stream `fixture`.
    Open {
        fixture: usize,
    },
    /// `n` single-segment pushes.
    Each {
        handle: usize,
        n: usize,
    },
    /// One `push_batch` of `n` segments.
    Batch {
        handle: usize,
        n: usize,
    },
    /// The next push is refused as `Overloaded` at a full epoch (checked on
    /// the runtime; the reference never sees refused input).
    Overloaded {
        handle: usize,
    },
    Close {
        handle: usize,
    },
}

/// Three streams at quota `3·2048 + 77`, fed in uneven `push` and
/// `push_batch` runs, several longer than a batch. Stream 0 fills a whole
/// epoch while the others lag, is refused, and retries once they catch up;
/// stream 1 closes mid-epoch and stream 3 joins mid-epoch.
fn long_epoch_script() -> Vec<LongOp> {
    use LongOp::*;
    let q = LONG_QUOTA;
    vec![
        Open { fixture: 0 },
        Open { fixture: 1 },
        Open { fixture: 2 },
        Batch { handle: 0, n: 3000 },
        Batch { handle: 0, n: 1 },
        Batch { handle: 0, n: 2500 },
        Batch {
            handle: 0,
            n: q - 5501,
        },
        Overloaded { handle: 0 },
        Each { handle: 1, n: 1000 },
        Batch { handle: 1, n: 4000 },
        Each {
            handle: 1,
            n: q - 5000,
        },
        Overloaded { handle: 0 },
        Batch { handle: 2, n: 2100 },
        Each { handle: 2, n: 77 },
        Batch {
            handle: 2,
            n: q - 2177,
        },
        Each { handle: 0, n: 1 },
        Batch { handle: 0, n: 2600 },
        Each { handle: 1, n: 1500 },
        Close { handle: 1 },
        Batch { handle: 2, n: 3100 },
        Open { fixture: 3 },
        Batch { handle: 0, n: 2049 },
        Each { handle: 2, n: 700 },
        Batch { handle: 3, n: 5000 },
        Batch {
            handle: 0,
            n: q - 2049,
        },
        Batch {
            handle: 2,
            n: q - 700,
        },
        Each {
            handle: 3,
            n: q - 5000,
        },
        Each { handle: 0, n: 300 },
        Batch { handle: 3, n: 2300 },
        Close { handle: 0 },
    ]
}

/// Drive the long-epoch script through the runtime.
fn long_runtime_run(shards: usize) -> MultiOutcome {
    let (streams, segs) = (fixture(), long_fixture());
    let mut rt = IngestRuntime::new(config_at_quota(shards, LONG_QUOTA));
    // (id, fixture, cursor)
    let mut handles: Vec<(StreamId, usize, usize)> = Vec::new();
    for op in long_epoch_script() {
        match op {
            LongOp::Open { fixture } => {
                let (w, m, _) = &streams[fixture];
                let id = rt
                    .open_stream(format!("cam-{fixture}"), m, w, IngestOptions::default())
                    .expect("admission");
                handles.push((id, fixture, 0));
            }
            LongOp::Each { handle, n } => {
                let (id, fx, cursor) = &mut handles[handle];
                for seg in &segs[*fx][*cursor..*cursor + n] {
                    rt.push(*id, seg).expect("push");
                }
                *cursor += n;
            }
            LongOp::Batch { handle, n } => {
                let (id, fx, cursor) = &mut handles[handle];
                rt.push_batch(*id, &segs[*fx][*cursor..*cursor + n])
                    .expect("push_batch");
                *cursor += n;
            }
            LongOp::Overloaded { handle } => {
                let (id, fx, cursor) = handles[handle];
                let err = rt.push(id, &segs[fx][cursor]).unwrap_err();
                assert_eq!(
                    err,
                    SkyError::Overloaded {
                        stream: id.index(),
                        queued: LONG_QUOTA,
                        capacity: LONG_QUOTA,
                    }
                );
                assert_eq!(rt.mailbox_room(id).expect("room"), 0);
                let lag = rt.metrics().streams[id.index()].lag_segments;
                assert!(
                    lag < MAILBOX_BATCH,
                    "a full epoch queues one batch at most: {lag}"
                );
            }
            LongOp::Close { handle } => rt.close_stream(handles[handle].0).expect("close"),
        }
    }
    rt.finish().expect("finish")
}

/// The long-epoch script through the reference, one segment per push.
fn long_reference_run() -> MultiOutcome {
    let (streams, segs) = (fixture(), long_fixture());
    let mut reference = Reference::new(&config_at_quota(1, LONG_QUOTA));
    let mut handles: Vec<(StreamId, usize, usize)> = Vec::new();
    for op in long_epoch_script() {
        match op {
            LongOp::Open { fixture } => {
                let (w, m, _) = &streams[fixture];
                let id = reference
                    .open(format!("cam-{fixture}"), m, w, IngestOptions::default())
                    .expect("admission");
                handles.push((id, fixture, 0));
            }
            LongOp::Each { handle, n } | LongOp::Batch { handle, n } => {
                let (id, fx, cursor) = &mut handles[handle];
                for seg in &segs[*fx][*cursor..*cursor + n] {
                    reference.push(*id, seg).expect("reference push");
                }
                *cursor += n;
            }
            LongOp::Overloaded { .. } => {}
            LongOp::Close { handle } => reference.close(handles[handle].0),
        }
    }
    reference.finish()
}

#[test]
fn runtime_matches_reference_long_epoch() {
    let reference = long_reference_run();
    let mut counts = vec![1, 2, max_shards()];
    counts.sort_unstable();
    counts.dedup();
    for shards in counts {
        let out = long_runtime_run(shards);
        assert_multi_outcomes_bitwise_equal(
            &format!("long epoch, shards={shards}"),
            &reference,
            &out,
        );
    }
}

#[test]
fn round_robin_lag_stays_within_one_batch_at_long_epochs() {
    // 10 800-segment epochs (the model's own 6 h cadence): three streams
    // push round-robin through a third of one epoch. Batches dispatch as
    // they fill, so no mailbox ever holds more than one, and no barrier
    // fires before the epoch's quota is used.
    let streams = fixture();
    let mut rt = IngestRuntime::new(config_at_quota(2, 10_800));
    let ids = open_all(&mut rt, &streams[..3]);
    let plans = rt.joint_plans();
    let segs = all_segments(&streams[..3]);
    let mut max_lag = 0;
    for i in 0..segs[0].len() {
        for (id, s) in ids.iter().zip(&segs) {
            rt.push(*id, &s[i]).expect("push");
        }
        let m = rt.metrics();
        max_lag = m
            .streams
            .iter()
            .map(|s| s.lag_segments)
            .fold(max_lag, usize::max);
    }
    assert!(max_lag <= MAILBOX_BATCH, "lag {max_lag} > one batch");
    let m = rt.metrics();
    assert!(
        m.segments_processed > 0,
        "processing happens in pushes, not at finish"
    );
    assert_eq!(rt.joint_plans(), plans, "the epoch bound is unchanged");
    let out = rt.finish().expect("finish");
    assert_eq!(out.streams.len(), 3);
}

#[test]
fn used_up_stream_waits_for_the_barrier_after_a_batch_dispatch() {
    // Stream a queues its whole long epoch; b's first batch dispatch then
    // processes a's tail too, leaving a at `used == quota` while b lags.
    // The barrier is not pending, so a may queue nothing more: a push is
    // refused until b completes the epoch, and the run stays equal to the
    // reference.
    let (streams, segs) = (fixture(), long_fixture());
    let q = LONG_QUOTA;
    let mut rt = IngestRuntime::new(config_at_quota(2, q));
    let mut reference = Reference::new(&config_at_quota(1, q));
    let mut ids = Vec::new();
    for (v, (w, m, _)) in streams[..2].iter().enumerate() {
        let id = rt
            .open_stream(format!("cam-{v}"), m, w, IngestOptions::default())
            .expect("admission");
        reference
            .open(format!("cam-{v}"), m, w, IngestOptions::default())
            .expect("admission");
        ids.push(id);
    }
    let (a, b) = (ids[0], ids[1]);
    let mut feed =
        |rt: &mut IngestRuntime<'static>, id: StreamId, range: std::ops::Range<usize>| {
            let s = &segs[id.index()][range];
            rt.push_batch(id, s).expect("push_batch");
            for seg in s {
                reference.push(id, seg).expect("reference push");
            }
        };
    feed(&mut rt, a, 0..q);
    assert_eq!(
        rt.metrics().streams[a.index()].lag_segments,
        q % MAILBOX_BATCH
    );
    feed(&mut rt, b, 0..MAILBOX_BATCH);
    let m = rt.metrics();
    assert_eq!(
        m.streams[a.index()].segments_processed,
        q,
        "a used its quota"
    );
    assert_eq!(m.streams[a.index()].lag_segments, 0);
    assert_eq!(rt.mailbox_room(a).expect("room"), 0);
    assert_eq!(
        rt.push(a, &segs[0][q]).unwrap_err(),
        SkyError::Overloaded {
            stream: a.index(),
            queued: q,
            capacity: q,
        }
    );
    feed(&mut rt, b, MAILBOX_BATCH..q);
    assert_eq!(
        rt.mailbox_room(a).expect("room"),
        q,
        "the next epoch opened"
    );
    feed(&mut rt, a, q..q + 1);
    let out = rt.finish().expect("finish");
    assert_multi_outcomes_bitwise_equal("clamped stream", &reference.finish(), &out);
}

/// Admit two streams, then drive them round-robin; at round 137 (mid-epoch)
/// a third admission must be rejected: ⌊2/3⌋ = 0 cores at 2 total.
fn drive_with_rejected_admission<D: Engine<'static>>(mut engine: D) -> MultiOutcome {
    let streams = fixture();
    let ids: Vec<StreamId> = streams[..2]
        .iter()
        .enumerate()
        .map(|(v, (w, m, _))| {
            let options = IngestOptions::default();
            engine
                .open(format!("cam-{v}"), m, w, options)
                .expect("admission")
        })
        .collect();
    for i in 0..2 * QUOTA + 137 {
        if i == 137 {
            let (w2, m2, _) = &streams[2];
            let options = IngestOptions::default();
            let err = engine
                .open("late".to_string(), m2, w2, options)
                .unwrap_err();
            assert!(matches!(err, SkyError::UnderProvisioned { .. }));
        }
        for (v, id) in ids.iter().enumerate() {
            engine.push(*id, &streams[v].2[i]);
        }
    }
    engine.done()
}

#[test]
fn rejected_mid_epoch_admission_preserves_bitwise_equivalence() {
    // A rejected admission leaves no trace: the runtime checks before it
    // flushes queued input or journals anything, so a mid-epoch rejection
    // cannot move its epoch boundaries away from the reference's.
    let tight_cores = 2.0;
    let reference = drive_with_rejected_admission(Reference::new(&config(1, tight_cores)));
    for shards in [1, 3] {
        let rt = IngestRuntime::new(config(shards, tight_cores));
        let out = drive_with_rejected_admission(Sharded(rt));
        assert_multi_outcomes_bitwise_equal(
            &format!("rejected admission, shards={shards}"),
            &reference,
            &out,
        );
    }
}

#[test]
fn mixed_segment_lengths_are_rejected_at_admission_without_a_trace() {
    // The Eq. 8 budget is per segment round, which only one segment length
    // defines: a stream whose segments differ from the fleet's is refused
    // typed, before any state or journal change.
    let streams = fixture();
    let (w0, m0, s0) = &streams[0];
    let (w1, m1, _) = &streams[1];
    let mut long = m1.clone();
    long.seg_len = 7.0;
    let dir = tmp_dir("mixed-seg-len");
    let mut rt = batch_runtime(2, Some(&dir));
    let a = rt
        .open_stream("a", m0, w0, IngestOptions::default())
        .expect("admission");
    rt.push(a, &s0[0]).expect("push");
    let wal = vetl::skyscraper::runtime::wal_path(&dir);
    let journaled = std::fs::read(&wal).expect("journal");
    let (epoch, plans) = (rt.epoch(), rt.joint_plans());

    let err = rt
        .open_stream("b", &long, w1, IngestOptions::default())
        .unwrap_err();
    assert!(matches!(err, SkyError::InvalidInput { .. }), "{err}");
    assert!(!err.is_retryable(), "a segment length never changes");
    assert_eq!(rt.n_streams(), 1);
    assert_eq!((rt.epoch(), rt.joint_plans()), (epoch, plans));
    assert_eq!(rt.metrics().streams[a.index()].lag_segments, 1);
    assert_eq!(std::fs::read(&wal).expect("journal"), journaled);

    // The reference rejects it the same way, and a matching stream is
    // still admitted.
    let mut reference = Reference::new(&config(1, TOTAL_CORES));
    reference
        .open("a", m0, w0, IngestOptions::default())
        .expect("admission");
    let err = reference
        .open("b", &long, w1, IngestOptions::default())
        .unwrap_err();
    assert!(matches!(err, SkyError::InvalidInput { .. }), "{err}");
    rt.open_stream("b", m1, w1, IngestOptions::default())
        .expect("same segment length admits");
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- Appendix D on the runtime: cadence, shared wallet, admissions. ----

/// Admit every stream of `streams` into `rt`.
fn open_all(rt: &mut IngestRuntime<'static>, streams: &'static [Fixture]) -> Vec<StreamId> {
    streams
        .iter()
        .enumerate()
        .map(|(v, (w, m, _))| {
            rt.open_stream(format!("cam-{v}"), m, w, IngestOptions::default())
                .expect("admission")
        })
        .collect()
}

/// Push `segs[v][range]` to stream `ids[v]`, round-robin.
fn push_round_robin(
    rt: &mut IngestRuntime<'_>,
    ids: &[StreamId],
    segs: &[&[Segment]],
    range: std::ops::Range<usize>,
) {
    for i in range {
        for (id, s) in ids.iter().zip(segs) {
            rt.push(*id, &s[i]).expect("push");
        }
    }
}

fn all_segments(streams: &[Fixture]) -> Vec<&[Segment]> {
    streams.iter().map(|(_, _, s)| s.as_slice()).collect()
}

#[test]
fn four_streams_replan_jointly_from_a_shared_wallet() {
    let streams = fixture();
    let mut rt = IngestRuntime::new(config(2, TOTAL_CORES));
    let ids = open_all(&mut rt, streams);
    assert_eq!(rt.n_streams(), streams.len());
    // Every admission reruns the joint LP.
    assert_eq!(rt.joint_plans(), streams.len());

    let serve = streams[0].2.len();
    push_round_robin(&mut rt, &ids, &all_segments(streams), 0..serve);
    let interval_replans = rt.joint_plans() - streams.len();
    assert!(
        interval_replans >= 3,
        "expected ≥3 cadence replans over 2 h at 30 min, got {interval_replans}"
    );
    let wallet_epochs = rt.joint_plans();

    let out = rt.finish().expect("finish");
    assert_eq!(out.streams.len(), streams.len());
    for s in &out.streams {
        assert_eq!(s.outcome.overflows, 0, "stream {}", s.workload_id);
        assert!(s.outcome.mean_quality > 0.3, "stream {}", s.workload_id);
        assert_eq!(s.outcome.segments, serve);
        // Sessions are externally planned: plans come from the runtime.
        assert!(s.outcome.plans > interval_replans);
    }
    assert!(out.joint_quality > 0.0);
    // The shared wallet refills once per joint plan: total spend is bounded
    // by one budget per wallet epoch.
    assert!(
        out.cloud_usd <= SHARED_BUDGET_USD * wallet_epochs as f64 + 1e-9,
        "spent {} over {wallet_epochs} wallet epochs of {SHARED_BUDGET_USD}",
        out.cloud_usd
    );
}

#[test]
fn shared_wallet_spends_no_more_than_one_budget_per_epoch_even_when_tight() {
    let streams = fixture();
    let tight = 0.01;
    let mut rt = IngestRuntime::new(RuntimeConfig {
        shared_cloud_budget_usd: tight,
        ..config(2, TOTAL_CORES)
    });
    let ids = open_all(&mut rt, streams);
    push_round_robin(&mut rt, &ids, &all_segments(streams), 0..streams[0].2.len());
    let epochs = rt.joint_plans();
    let out = rt.finish().expect("finish");
    assert!(out.cloud_usd <= tight * epochs as f64 + 1e-9);
    for s in &out.streams {
        assert_eq!(s.outcome.overflows, 0, "tight wallet must not break Eq. 1");
    }
}

#[test]
fn streams_can_arrive_and_push_interleaved_with_admissions() {
    // Admission mid-serve: two streams run for an hour, then two more join;
    // the joint LP reruns at each admission and all four finish cleanly.
    let streams = fixture();
    let segs = all_segments(streams);
    let half = segs[0].len() / 2;
    let mut rt = IngestRuntime::new(config(2, TOTAL_CORES));
    let mut ids = open_all(&mut rt, &streams[..2]);
    push_round_robin(&mut rt, &ids, &segs[..2], 0..half);

    let plans = rt.joint_plans();
    for (v, (w, m, _)) in streams.iter().enumerate().skip(2) {
        let id = rt
            .open_stream(format!("late-{v}"), m, w, IngestOptions::default())
            .expect("late admission");
        ids.push(id);
    }
    assert_eq!(rt.n_streams(), 4);
    assert_eq!(rt.joint_plans(), plans + 2, "each admission replans");

    // The early streams serve their second hour while the late ones serve
    // their first; then the early ones leave and the late ones go on.
    let rest = segs[0].len() - half;
    let tails: Vec<&[Segment]> = vec![&segs[0][half..], &segs[1][half..], segs[2], segs[3]];
    push_round_robin(&mut rt, &ids, &tails, 0..rest);
    rt.close_stream(ids[0]).expect("close");
    rt.close_stream(ids[1]).expect("close");
    push_round_robin(&mut rt, &ids[2..], &segs[2..], rest..segs[2].len());

    let out = rt.finish().expect("finish");
    for s in &out.streams {
        assert_eq!(s.outcome.overflows, 0, "stream {}", s.workload_id);
        assert!(s.outcome.segments > 0);
    }
}

#[test]
fn runtime_overload_rejection_is_retryable_and_leaves_no_trace() {
    // A full bounded mailbox pushes back typed (SkyError::Overloaded), the
    // rejection changes nothing bitwise, and the identical push succeeds
    // after the lagging stream catches up.
    let streams = fixture();
    let (w0, m0, s0) = &streams[0];
    let (w1, m1, s1) = &streams[1];
    let serve = QUOTA + 40;

    let drive = |storm: bool| -> MultiOutcome {
        let mut rt = IngestRuntime::new(RuntimeConfig {
            seed: 31,
            ..config(2, TOTAL_CORES)
        });
        let a = rt
            .open_stream("a", m0, w0, IngestOptions::default())
            .unwrap();
        let b = rt
            .open_stream("b", m1, w1, IngestOptions::default())
            .unwrap();
        if storm {
            // Fill a's mailbox to its epoch bound while b lags entirely.
            for seg in &s0[..QUOTA] {
                rt.push(a, seg).unwrap();
            }
            for _ in 0..30 {
                let err = rt.push(a, &s0[QUOTA]).unwrap_err();
                assert_eq!(
                    err,
                    SkyError::Overloaded {
                        stream: a.index(),
                        queued: QUOTA,
                        capacity: QUOTA,
                    }
                );
                assert!(err.is_retryable());
            }
            // Catching b up un-wedges the epoch; the identical push that
            // was rejected now succeeds.
            for seg in &s1[..QUOTA] {
                rt.push(b, seg).unwrap();
            }
            rt.push(a, &s0[QUOTA])
                .expect("retry succeeds after dispatch");
            for i in QUOTA..serve {
                if i > QUOTA {
                    rt.push(a, &s0[i]).unwrap();
                }
                rt.push(b, &s1[i]).unwrap();
            }
        } else {
            for i in 0..serve {
                rt.push(a, &s0[i]).unwrap();
                rt.push(b, &s1[i]).unwrap();
            }
        }
        rt.finish().expect("finish")
    };

    let calm = drive(false);
    let stormy = drive(true);
    assert_multi_outcomes_bitwise_equal("overload rejections leave no trace", &calm, &stormy);
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
