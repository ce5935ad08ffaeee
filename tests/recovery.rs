//! Crash-anywhere recovery for the durable ingest runtime.
//!
//! The acceptance bar of the durability subsystem: **a run crashed at ANY
//! point and recovered from disk is bitwise identical** — per-stream
//! `IngestOutcome`s, joint-plan history, spend — to the uninterrupted run,
//! for any shard count, under mid-run open/close churn, injected worker
//! panics, wallet-refill outages, mailbox-overflow storms, and torn or
//! bit-rotted journal tails.
//!
//! Environment knobs (mirrored by the CI chaos matrix):
//! * `VETL_SHARDS` — extra shard count the property runs at (default 4).
//! * `VETL_CHAOS_SEED` — seed for the randomized schedules and crash
//!   points (default 0xC0FFEE), so a failing draw replays exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use rand::{rngs::StdRng, Rng, SeedableRng};

use vetl::prelude::*;
use vetl::skyscraper::offline::run_offline;
use vetl::skyscraper::runtime::MAILBOX_BATCH;
use vetl::skyscraper::testkit::chaos::{self, FailurePlan, CRASH_PAYLOAD};
use vetl::skyscraper::testkit::{assert_multi_outcomes_bitwise_equal, ToyWorkload};
use vetl::skyscraper::{FittedModel, MultiOutcome};

const SHARED_BUDGET_USD: f64 = 0.5;
/// Short planning epochs (120 segments at 2 s) so runs cross many barriers.
const REPLAN_SECS: f64 = 240.0;
const QUOTA: usize = 120;
const SEED: u64 = 11;
const TOTAL_CORES: f64 = 16.0;

fn alt_shards() -> usize {
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

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vetl-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type Fixture = (ToyWorkload, FittedModel, Vec<Segment>);

/// The fixture fitted with a 20 min forecaster input (600 segments), so
/// its sessions trim their category history every 75 segments.
const SHORT: usize = 3;

/// Four independently fitted streams over distinct content processes,
/// with 5 hours of online video each: three fitted with `fast_test`, and
/// [`SHORT`].
fn fixture() -> &'static Vec<Fixture> {
    static FIXTURE: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        (0..4u64)
            .map(|v| {
                let w = ToyWorkload::new();
                let mut cam =
                    SyntheticCamera::new(ContentParams::traffic_intersection(41 + v), 2.0);
                let labeled = Recording::record(&mut cam, 20.0 * 60.0);
                let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
                let mut hyper = SkyscraperConfig::fast_test();
                if v as usize == SHORT {
                    hyper.forecast_input_secs = 20.0 * 60.0;
                }
                let (model, _) = run_offline(
                    &w,
                    &labeled,
                    &unlabeled,
                    HardwareSpec::with_cores(16),
                    &hyper,
                )
                .expect("fit");
                let online = Recording::record(&mut cam, 5.0 * 3_600.0)
                    .segments()
                    .to_vec();
                (w, model, online)
            })
            .collect()
    })
}

/// One churn schedule, flattened into the exact operation sequence a driver
/// would issue (including the auto-closes of exhausted streams), so a crash
/// point is just an index into this list.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Admit the `fixture`-indexed stream (the h-th Open gets handle h).
    Open { fixture: usize },
    /// Push segment `seg_idx` of handle `handle`'s fixture stream.
    Push { handle: usize, seg_idx: usize },
    /// Close handle `handle`.
    Close { handle: usize },
}

#[derive(Debug, Clone)]
struct Schedule {
    /// `(round, fixture, push_limit)`.
    opens: Vec<(usize, usize, usize)>,
    /// `(round, handle)`.
    closes: Vec<(usize, usize)>,
    rounds: usize,
}

/// Flatten a schedule into ops (same driving discipline as
/// `tests/runtime.rs`: churn at round boundaries, then one segment per open
/// stream per round, exhausted streams closed).
fn flatten(schedule: &Schedule) -> (Vec<Op>, Vec<usize>) {
    let mut ops = Vec::new();
    let mut open_fixture = Vec::new();
    // (limit, cursor, open)
    let mut handles: Vec<(usize, usize, bool)> = Vec::new();
    for round in 0..schedule.rounds {
        for &(at, fixture, limit) in &schedule.opens {
            if at == round {
                ops.push(Op::Open { fixture });
                open_fixture.push(fixture);
                handles.push((limit.min(fixture_len(fixture)), 0, true));
            }
        }
        for &(at, handle) in &schedule.closes {
            if at == round && handles[handle].2 {
                ops.push(Op::Close { handle });
                handles[handle].2 = false;
            }
        }
        for (h, (limit, cursor, open)) in handles.iter_mut().enumerate() {
            if !*open {
                continue;
            }
            if *cursor < *limit {
                ops.push(Op::Push {
                    handle: h,
                    seg_idx: *cursor,
                });
                *cursor += 1;
            } else {
                ops.push(Op::Close { handle: h });
                *open = false;
            }
        }
    }
    (ops, open_fixture)
}

fn fixture_len(fixture: usize) -> usize {
    self::fixture()[fixture].2.len()
}

fn config(shards: usize, dir: Option<&PathBuf>, chaos: Option<Arc<FailurePlan>>) -> RuntimeConfig {
    config_at(REPLAN_SECS, shards, dir, chaos)
}

/// [`config`] at a replanning interval of `replan_secs`.
fn config_at(
    replan_secs: f64,
    shards: usize,
    dir: Option<&PathBuf>,
    chaos: Option<Arc<FailurePlan>>,
) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        shared_cloud_budget_usd: SHARED_BUDGET_USD,
        seed: SEED,
        replan_interval_secs: Some(replan_secs),
        total_cores: Some(TOTAL_CORES),
        durability: dir.map(|d| DurabilityConfig {
            dir: d.clone(),
            checkpoint_every_epochs: 2,
        }),
        chaos,
        ..RuntimeConfig::default()
    }
}

/// Apply ops starting after what `resume` reports as durable; stop (without
/// finishing) at op index `stop_at` when given. Returns the handles opened.
fn apply_ops(
    rt: &mut IngestRuntime<'static>,
    ops: &[Op],
    open_fixture: &[usize],
    resume: Option<&RecoveryReport>,
    stop_at: Option<usize>,
) -> Vec<StreamId> {
    let streams = fixture();
    let recovered = resume.map_or(0, |r| r.streams.len());
    let mut pushed: Vec<usize> = (0..open_fixture.len())
        .map(|h| {
            resume
                .and_then(|r| r.streams.get(h))
                .map_or(0, |s| s.accepted_segments)
        })
        .collect();
    let mut closed: Vec<bool> = (0..open_fixture.len())
        .map(|h| {
            resume
                .and_then(|r| r.streams.get(h))
                .is_some_and(|s| s.closed)
        })
        .collect();
    let mut handles: Vec<StreamId> = (0..recovered).map(StreamId::from_index).collect();
    let mut opens_seen = 0;
    for (i, op) in ops.iter().enumerate() {
        if stop_at == Some(i) {
            break;
        }
        match *op {
            Op::Open { fixture: fx } => {
                let h = opens_seen;
                opens_seen += 1;
                if h < recovered {
                    continue; // already durably admitted
                }
                let (w, m, _) = &streams[fx];
                let id = rt
                    .open_stream(format!("cam-{fx}"), m, w, IngestOptions::default())
                    .expect("admission");
                assert_eq!(id.index(), h, "slots are admission-ordered");
                handles.push(id);
            }
            Op::Push { handle, seg_idx } => {
                if seg_idx < pushed[handle] {
                    continue; // durable before the crash
                }
                let fx = open_fixture[handle];
                rt.push(handles[handle], &streams[fx].2[seg_idx])
                    .expect("push");
                pushed[handle] = seg_idx + 1;
            }
            Op::Close { handle } => {
                if closed[handle] {
                    continue;
                }
                rt.close_stream(handles[handle]).expect("close");
                closed[handle] = true;
            }
        }
    }
    handles
}

/// The resolver a recovering process uses: slot → (model, workload), from
/// the open-order fixture map.
fn resolver(
    open_fixture: &[usize],
) -> impl Fn(usize, &str) -> Option<(&'static FittedModel, &'static (dyn Workload + 'static))> + '_
{
    move |slot, id| {
        let fx = *open_fixture.get(slot)?;
        assert_eq!(id, format!("cam-{fx}"), "journaled id matches the slot");
        let (w, m, _) = &fixture()[fx];
        Some((m, w as &dyn Workload))
    }
}

/// Uninterrupted reference run (no durability — durability must not change
/// a single bit, which `durable_run_is_bitwise_identical_to_in_memory`
/// checks separately).
fn reference(ops: &[Op], open_fixture: &[usize], shards: usize) -> MultiOutcome {
    let mut rt = IngestRuntime::new(config(shards, None, None));
    apply_ops(&mut rt, ops, open_fixture, None, None);
    rt.finish().expect("finish")
}

/// Crash at `crash_at` (drop the runtime mid-run), recover from `dir` with
/// `recover_shards` shards, resume the op stream, and finish.
fn crash_and_recover(
    ops: &[Op],
    open_fixture: &[usize],
    dir: &PathBuf,
    shards: usize,
    recover_shards: usize,
    crash_at: usize,
) -> (MultiOutcome, RecoveryReport) {
    {
        let mut rt = IngestRuntime::new(config(shards, Some(dir), None));
        apply_ops(&mut rt, ops, open_fixture, None, Some(crash_at));
        // Process dies here: the runtime is dropped without finish().
    }
    let resolve = resolver(open_fixture);
    let (mut rt, report) =
        IngestRuntime::recover(config(recover_shards, Some(dir), None), &resolve).expect("recover");
    // Recovery must restore *exactly* the durable prefix: with no torn
    // tail, every admission and every accepted segment before the crash —
    // nothing more (the test would otherwise pass trivially by re-running
    // everything from scratch), nothing less.
    let opens_before = ops[..crash_at]
        .iter()
        .filter(|o| matches!(o, Op::Open { .. }))
        .count();
    let pushes_before = ops[..crash_at]
        .iter()
        .filter(|o| matches!(o, Op::Push { .. }))
        .count();
    assert_eq!(
        report.streams.len(),
        opens_before,
        "every admission before the crash is durable"
    );
    let accepted: usize = report.streams.iter().map(|s| s.accepted_segments).sum();
    assert_eq!(
        accepted, pushes_before,
        "every accepted push before the crash is durable"
    );
    apply_ops(&mut rt, ops, open_fixture, Some(&report), None);
    (rt.finish().expect("finish"), report)
}

#[test]
fn durable_run_is_bitwise_identical_to_in_memory() {
    let schedule = Schedule {
        opens: vec![(0, 0, 2 * QUOTA + 30), (0, 1, 2 * QUOTA + 30)],
        closes: vec![],
        rounds: 2 * QUOTA + 30,
    };
    let (ops, open_fixture) = flatten(&schedule);
    let plain = reference(&ops, &open_fixture, 2);

    let dir = tmpdir("durable-noop");
    let mut rt = IngestRuntime::new(config(2, Some(&dir), None));
    apply_ops(&mut rt, &ops, &open_fixture, None, None);
    let durable = rt.finish().expect("finish");

    assert_multi_outcomes_bitwise_equal("durable == in-memory", &plain, &durable);
    assert!(
        vetl::skyscraper::runtime::wal_path(&dir).exists(),
        "journal written"
    );
    assert!(
        vetl::skyscraper::runtime::checkpoint_path(&dir).exists(),
        "snapshots written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole property: random schedules × shard counts {1, 2, 4/env} ×
/// crash points sampled around and inside epochs, with mid-run open/close
/// churn; recovery may even change the shard count.
#[test]
fn crash_anywhere_recovery_is_bitwise() {
    let mut rng = StdRng::seed_from_u64(chaos_seed());
    let shard_counts = {
        let mut s = vec![1, 2, alt_shards()];
        s.sort_unstable();
        s.dedup();
        s
    };
    for case in 0..3 {
        let open_at = rng.gen_range(1..(2 * QUOTA));
        let close_at = rng.gen_range(1..(2 * QUOTA));
        let len_a = rng.gen_range((QUOTA + 10)..(2 * QUOTA + 100));
        let len_c = rng.gen_range(50..(QUOTA + 50));
        let schedule = Schedule {
            opens: vec![(0, 0, len_a), (0, 1, 2 * QUOTA + 60), (open_at, 2, len_c)],
            closes: vec![(close_at, 0)],
            rounds: 2 * QUOTA + 60,
        };
        let (ops, open_fixture) = flatten(&schedule);
        for &shards in &shard_counts {
            let expected = reference(&ops, &open_fixture, shards);
            // Crash points: mid-epoch, around an epoch boundary, and in the
            // churn window — all sampled per case.
            let crash_points = [
                rng.gen_range(1..ops.len()),
                (QUOTA * open_fixture.len().min(2)).min(ops.len() - 1),
                rng.gen_range((ops.len() / 2)..ops.len()),
            ];
            for &crash_at in &crash_points {
                let dir = tmpdir(&format!("prop-{case}-{shards}-{crash_at}"));
                let recover_shards = *shard_counts
                    .get((case + crash_at) % shard_counts.len())
                    .expect("non-empty");
                let (out, report) =
                    crash_and_recover(&ops, &open_fixture, &dir, shards, recover_shards, crash_at);
                assert_multi_outcomes_bitwise_equal(
                    &format!(
                        "case {case}, shards {shards}->{recover_shards}, crash at op \
                         {crash_at}/{} (report {report:?})",
                        ops.len()
                    ),
                    &expected,
                    &out,
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Epochs of two mailbox batches and a tail, so batches dispatch inside
/// epochs: crashes between two batch dispatches, with the barrier pending,
/// and after a snapshot of a batch-dispatched epoch all recover the
/// uninterrupted run's epoch bookkeeping and then its outcome, bitwise.
#[test]
fn crash_between_batch_dispatches_recovers_bitwise() {
    const LONG_QUOTA: usize = 2 * MAILBOX_BATCH + 77;
    let replan_secs = 2.0 * LONG_QUOTA as f64;
    let schedule = Schedule {
        opens: vec![(0, 0, 9_000), (0, 1, 9_000), (1_000, 2, 6_000)],
        closes: vec![(6_500, 1)],
        rounds: 9_000,
    };
    let (ops, open_fixture) = flatten(&schedule);
    let uninterrupted = |stop_at| {
        let mut rt = IngestRuntime::new(config_at(replan_secs, 2, None, None));
        apply_ops(&mut rt, &ops, &open_fixture, None, stop_at);
        rt
    };
    let expected = uninterrupted(None).finish().expect("finish");
    // Stream 0 fills a batch at rounds 3 047 and 5 095 (the epoch opened by
    // the admission at round 1 000 is used up at round 5 172) and 7 220,
    // where the pending barrier fires and the snapshot cadence comes due.
    let at_round = |round: usize| {
        ops.iter()
            .position(|op| matches!(*op, Op::Push { handle: 0, seg_idx } if seg_idx == round))
            .expect("stream 0 pushes every round")
    };
    // What the driver and the epoch bound see: epoch, per-stream progress
    // and lag, and each stream's epoch room.
    let observe = |rt: &IngestRuntime<'_>| {
        let m = rt.metrics();
        let rooms: Vec<_> = (0..m.streams.len())
            .map(|i| rt.mailbox_room(StreamId::from_index(i)))
            .collect();
        let progress: Vec<_> = m
            .streams
            .iter()
            .map(|s| (s.segments_processed, s.lag_segments))
            .collect();
        (m.epoch, progress, rooms)
    };
    for (i, round) in [4_000, 6_000, 8_000].into_iter().enumerate() {
        let crash_at = at_round(round);
        let live = uninterrupted(Some(crash_at));

        let dir = tmpdir(&format!("batch-{round}"));
        {
            let mut rt = IngestRuntime::new(config_at(replan_secs, 2, Some(&dir), None));
            apply_ops(&mut rt, &ops, &open_fixture, None, Some(crash_at));
        }
        let recover_shards = [1, alt_shards(), 2][i];
        let resolve = resolver(&open_fixture);
        let cfg = config_at(replan_secs, recover_shards, Some(&dir), None);
        let (mut rt, report) = IngestRuntime::recover(cfg, &resolve).expect("recover");
        assert!(report.resumed_from_snapshot);
        let what = format!("crash at round {round}, 2 -> {recover_shards} shards ({report:?})");
        assert_eq!(observe(&rt), observe(&live), "{what}");
        apply_ops(&mut rt, &ops, &open_fixture, Some(&report), None);
        let out = rt.finish().expect("finish");
        assert_multi_outcomes_bitwise_equal(&what, &expected, &out);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crashes after the [`SHORT`] streams' category histories have started
/// trimming (600 kept, trimmed every 75 segments), so the snapshot holds
/// trimmed lists and the recovered run trims them again: recovered ≡
/// uninterrupted at 1, 2 and `VETL_SHARDS` shards.
#[test]
fn crash_after_history_trims_recovers_bitwise() {
    let keep = {
        let model = &fixture()[SHORT].1;
        (model.hyper.forecast_input_secs / model.seg_len).round() as usize
    };
    assert_eq!(keep, 600);
    let schedule = Schedule {
        opens: vec![(0, SHORT, 1_500), (0, 0, 1_500), (300, SHORT, 1_000)],
        closes: vec![],
        rounds: 1_500,
    };
    let (ops, open_fixture) = flatten(&schedule);
    let mut rng = StdRng::seed_from_u64(chaos_seed() ^ 0x7219);
    let shard_counts = {
        let mut s = vec![1, 2, alt_shards()];
        s.sort_unstable();
        s.dedup();
        s
    };
    for &shards in &shard_counts {
        let expected = reference(&ops, &open_fixture, shards);
        for crash_at in [ops.len() / 2, rng.gen_range((ops.len() / 3)..ops.len())] {
            let short_pushes = ops[..crash_at]
                .iter()
                .filter(|op| matches!(op, Op::Push { handle: 0, .. }))
                .count();
            // Trims start after keep/8 pushes; a snapshot lands every two
            // epochs (2 * QUOTA rounds), so one with trimmed lists exists.
            assert!(short_pushes > 4 * QUOTA, "the crash lands after trims");
            let dir = tmpdir(&format!("trim-{shards}-{crash_at}"));
            let recover_shards = shard_counts[crash_at % shard_counts.len()];
            let (out, report) =
                crash_and_recover(&ops, &open_fixture, &dir, shards, recover_shards, crash_at);
            assert!(report.resumed_from_snapshot);
            assert_multi_outcomes_bitwise_equal(
                &format!(
                    "shards {shards}->{recover_shards}, crash at op {crash_at}/{}",
                    ops.len()
                ),
                &expected,
                &out,
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn double_crash_with_torn_and_rotted_tails_recovers_bitwise() {
    let schedule = Schedule {
        opens: vec![
            (0, 0, 2 * QUOTA + 40),
            (0, 1, 2 * QUOTA + 40),
            (37, 2, QUOTA),
        ],
        closes: vec![(QUOTA + 20, 1)],
        rounds: 2 * QUOTA + 40,
    };
    let (ops, open_fixture) = flatten(&schedule);
    let expected = reference(&ops, &open_fixture, 2);
    let mut rng = StdRng::seed_from_u64(chaos_seed() ^ 0xDEAD);

    let dir = tmpdir("torn");
    // First crash: tear a random chunk off the journal tail (a crash
    // mid-append) before recovering.
    let crash_1 = ops.len() / 3;
    {
        let mut rt = IngestRuntime::new(config(2, Some(&dir), None));
        apply_ops(&mut rt, &ops, &open_fixture, None, Some(crash_1));
    }
    let torn = chaos::tear_wal_tail(&dir, rng.gen_range(1..200)).expect("tear");
    assert!(torn > 0);
    let resolve = resolver(&open_fixture);
    let (mut rt, report_1) =
        IngestRuntime::recover(config(1, Some(&dir), None), &resolve).expect("recover 1");

    // Second crash: continue, die again, rot one byte near the journal's
    // end (checksum chain must discard from there), recover again.
    let crash_2 = 2 * ops.len() / 3;
    apply_ops(&mut rt, &ops, &open_fixture, Some(&report_1), Some(crash_2));
    drop(rt);
    // Rot a byte in the journal's *final* record (every record body is at
    // least 9 bytes, so the last 8 bytes always belong to it): the checksum
    // chain discards it as a tail. Rot before the final record is mid-file
    // corruption and fails typed instead — covered by
    // `recovery_failure_modes_are_typed` / the wal unit tests.
    chaos::flip_wal_byte(&dir, rng.gen_range(0..8)).expect("rot");
    let (mut rt, report_2) =
        IngestRuntime::recover(config(4, Some(&dir), None), &resolve).expect("recover 2");
    assert!(
        report_2.discarded_bytes > 0,
        "the rotted tail must be detected and discarded"
    );
    apply_ops(&mut rt, &ops, &open_fixture, Some(&report_2), None);
    let out = rt.finish().expect("finish");
    assert_multi_outcomes_bitwise_equal("double crash + torn/rotted tails", &expected, &out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_worker_crash_recovers_bitwise() {
    let schedule = Schedule {
        opens: vec![(0, 0, 3 * QUOTA), (0, 1, 3 * QUOTA)],
        closes: vec![],
        rounds: 3 * QUOTA,
    };
    let (ops, open_fixture) = flatten(&schedule);
    let expected = reference(&ops, &open_fixture, 2);

    let dir = tmpdir("worker-crash");
    let plan = Arc::new(FailurePlan::new().crash_worker(2, 1));
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let mut rt = IngestRuntime::new(config(2, Some(&dir), Some(Arc::clone(&plan))));
        apply_ops(&mut rt, &ops, &open_fixture, None, None);
        rt.finish().expect("finish")
    }));
    let payload = crashed.expect_err("the injected crash must fire");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.starts_with(CRASH_PAYLOAD),
        "panic must be the injected one, got: {msg}"
    );

    // The worker died mid-dispatch; everything accepted is journaled, so
    // recovery rebuilds the exact pre-dispatch state and the driver resumes.
    let resolve = resolver(&open_fixture);
    let (mut rt, report) =
        IngestRuntime::recover(config(2, Some(&dir), Some(Arc::clone(&plan))), &resolve)
            .expect("recover");
    apply_ops(&mut rt, &ops, &open_fixture, Some(&report), None);
    let out = rt.finish().expect("finish");
    assert_multi_outcomes_bitwise_equal("injected worker crash", &expected, &out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wallet_outage_is_deterministic_and_survives_a_crash() {
    let schedule = Schedule {
        opens: vec![(0, 0, 3 * QUOTA), (0, 1, 3 * QUOTA)],
        closes: vec![],
        rounds: 3 * QUOTA,
    };
    let (ops, open_fixture) = flatten(&schedule);

    // The outage is a semantic fault: reference and recovered runs both
    // carry it, and the lease for the outage epoch is zero.
    let outage_epoch = 3;
    let outage_plan = || Arc::new(FailurePlan::new().wallet_outage(outage_epoch));
    let mut ref_rt = IngestRuntime::new(config(2, None, Some(outage_plan())));
    apply_ops(&mut ref_rt, &ops, &open_fixture, None, None);
    let expected = ref_rt.finish().expect("finish");

    let dir = tmpdir("outage");
    let crash_at = ops.len() / 2;
    {
        let mut rt = IngestRuntime::new(config(2, Some(&dir), Some(outage_plan())));
        apply_ops(&mut rt, &ops, &open_fixture, None, Some(crash_at));
        // The run reaches past the outage barrier before dying: its last
        // joint plan history must reflect the zero lease at some point.
    }
    let resolve = resolver(&open_fixture);
    let (mut rt, report) =
        IngestRuntime::recover(config(2, Some(&dir), Some(outage_plan())), &resolve)
            .expect("recover");
    apply_ops(&mut rt, &ops, &open_fixture, Some(&report), None);
    let out = rt.finish().expect("finish");
    assert_multi_outcomes_bitwise_equal("wallet outage + crash", &expected, &out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_failure_plans_recover_bitwise_and_deterministically() {
    // A fully sampled plan (crashes + outages drawn from the chaos seed):
    // the reference run carries the same *semantic* faults (outages) but no
    // crashes; the chaotic run crashes, recovers, and must match. Re-arming
    // the plan and repeating the whole crash/recover cycle must reproduce
    // the recovered outcome bit for bit — a failing seed replays exactly.
    let schedule = Schedule {
        opens: vec![(0, 0, 3 * QUOTA + 20), (0, 1, 3 * QUOTA + 20)],
        closes: vec![],
        rounds: 3 * QUOTA + 20,
    };
    let (ops, open_fixture) = flatten(&schedule);
    let plan = Arc::new(FailurePlan::seeded(chaos_seed(), 5, 2));
    assert!(!plan.crash_points().is_empty(), "seeded plans always crash");

    // Reference: same wallet outages, no crashes.
    let outage_only = Arc::new(
        plan.outages()
            .iter()
            .fold(FailurePlan::new(), |p, &e| p.wallet_outage(e)),
    );
    let mut ref_rt = IngestRuntime::new(config(2, None, Some(outage_only)));
    apply_ops(&mut ref_rt, &ops, &open_fixture, None, None);
    let expected = ref_rt.finish().expect("finish");

    let resolve = resolver(&open_fixture);
    let run_once = |tag: &str| -> MultiOutcome {
        plan.rearm();
        let dir = tmpdir(tag);
        // A seeded plan may hold several crash points (the second fires
        // during the post-recovery resume): keep catching the unwind and
        // recovering until the drive completes. Terminates because every
        // crash point fires at most once per arming.
        let mut crashed_before = false;
        let out = loop {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                if crashed_before {
                    let (mut rt, report) = IngestRuntime::recover(
                        config(2, Some(&dir), Some(Arc::clone(&plan))),
                        &resolve,
                    )
                    .expect("recover");
                    apply_ops(&mut rt, &ops, &open_fixture, Some(&report), None);
                    rt.finish().expect("finish")
                } else {
                    let mut rt = IngestRuntime::new(config(2, Some(&dir), Some(Arc::clone(&plan))));
                    apply_ops(&mut rt, &ops, &open_fixture, None, None);
                    rt.finish().expect("finish")
                }
            }));
            match attempt {
                // Remaining crash points sat outside the run's dispatch
                // schedule: the run completes with its outages only.
                Ok(out) => break out,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    assert!(msg.starts_with(CRASH_PAYLOAD), "unexpected panic: {msg}");
                    crashed_before = true;
                }
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        out
    };

    let first = run_once("seeded-1");
    assert_multi_outcomes_bitwise_equal("seeded plan, crash + recover", &expected, &first);
    let second = run_once("seeded-2");
    assert_multi_outcomes_bitwise_equal("re-armed plan reproduces the run", &first, &second);
}

#[test]
fn overflow_storm_is_typed_backpressure_and_leaves_no_trace() {
    let streams = fixture();
    let (w0, m0, s0) = &streams[0];
    let (w1, m1, s1) = &streams[1];
    let serve = 2 * QUOTA + 15;

    let drive = |storm: bool, dir: Option<&PathBuf>| -> MultiOutcome {
        let mut rt = IngestRuntime::new(config(2, dir, None));
        let a = rt
            .open_stream("a", m0, w0, IngestOptions::default())
            .unwrap();
        let b = rt
            .open_stream("b", m1, w1, IngestOptions::default())
            .unwrap();
        for i in 0..serve {
            rt.push(a, &s0[i]).unwrap();
            if storm && i == QUOTA - 1 {
                // `a` has a full epoch queued and `b` lags: hammer the
                // bounded mailbox. Every attempt must be a typed rejection.
                let rejected = chaos::overflow_storm(&mut rt, a, &s0[i], 40);
                assert_eq!(rejected, 40);
            }
            rt.push(b, &s1[i]).unwrap();
        }
        rt.finish().expect("finish")
    };

    let calm = drive(false, None);
    let stormy = drive(true, None);
    assert_multi_outcomes_bitwise_equal("storm leaves no trace", &calm, &stormy);

    // Rejected pushes are not journaled either: a storm followed by a crash
    // recovers to the same bitwise outcome.
    let dir = tmpdir("storm");
    {
        let mut rt = IngestRuntime::new(config(2, Some(&dir), None));
        let a = rt
            .open_stream("a", m0, w0, IngestOptions::default())
            .unwrap();
        let _b = rt
            .open_stream("b", m1, w1, IngestOptions::default())
            .unwrap();
        for seg in &s0[..QUOTA] {
            rt.push(a, seg).unwrap();
        }
        let rejected = chaos::overflow_storm(&mut rt, a, &s0[QUOTA], 25);
        assert_eq!(rejected, 25);
        // Crash with the storm rejections in the recent past.
    }
    let open_fixture = [0usize, 1usize];
    let resolve = move |slot: usize, _id: &str| {
        let (w, m, _) = &fixture()[open_fixture[slot]];
        Some((m, w as &(dyn Workload + 'static)))
    };
    let (mut rt, report) =
        IngestRuntime::recover(config(2, Some(&dir), None), &resolve).expect("recover");
    assert_eq!(report.streams[0].accepted_segments, QUOTA);
    assert_eq!(report.streams[1].accepted_segments, 0);
    let a = StreamId::from_index(0);
    let b = StreamId::from_index(1);
    // Balanced resume: stream a already holds a full durable epoch, so b
    // catches up first, then the two advance in lockstep.
    for i in 0..serve {
        if i >= report.streams[0].accepted_segments {
            rt.push(a, &s0[i]).unwrap();
        }
        if i >= report.streams[1].accepted_segments {
            rt.push(b, &s1[i]).unwrap();
        }
    }
    let recovered = rt.finish().expect("finish");
    assert_multi_outcomes_bitwise_equal("storm + crash", &calm, &recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_config_overrides_a_mismatched_recovery_config() {
    // The journal's first record pins the run's planning configuration
    // (seed, budget, cost model, overrides). A recovery invoked with a
    // *different* RuntimeConfig must still replay the journaled run's
    // timeline — otherwise the bitwise guarantee would silently depend on
    // the operator retyping the exact config after a crash.
    let schedule = Schedule {
        opens: vec![(0, 0, 2 * QUOTA + 10), (0, 1, 2 * QUOTA + 10)],
        closes: vec![],
        rounds: 2 * QUOTA + 10,
    };
    let (ops, open_fixture) = flatten(&schedule);
    let expected = reference(&ops, &open_fixture, 2);

    let dir = tmpdir("cfg-mismatch");
    let crash_at = 2 * ops.len() / 3;
    {
        // Journal-only durability: all config restoration must come from
        // the journal's Config record, not a snapshot.
        let mut cfg = config(2, Some(&dir), None);
        cfg.durability
            .as_mut()
            .expect("dur")
            .checkpoint_every_epochs = 0;
        let mut rt = IngestRuntime::new(cfg);
        apply_ops(&mut rt, &ops, &open_fixture, None, Some(crash_at));
    }
    let mut wrong = config(2, Some(&dir), None);
    wrong.seed = SEED ^ 0xBAD;
    wrong.shared_cloud_budget_usd = SHARED_BUDGET_USD * 3.0;
    wrong.replan_interval_secs = Some(REPLAN_SECS * 2.0);
    wrong.total_cores = Some(TOTAL_CORES + 8.0);
    let resolve = resolver(&open_fixture);
    let (mut rt, report) = IngestRuntime::recover(wrong, &resolve).expect("recover");
    assert_eq!(report.replay_errors, 0);
    apply_ops(&mut rt, &ops, &open_fixture, Some(&report), None);
    let out = rt.finish().expect("finish");
    assert_multi_outcomes_bitwise_equal("journaled config wins over the caller's", &expected, &out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_failure_modes_are_typed() {
    let streams = fixture();
    let (w0, m0, s0) = &streams[0];

    // recover() without durability config.
    let Err(err) = IngestRuntime::recover(config(1, None, None), &|_, _| None) else {
        panic!("recover without durability must fail");
    };
    assert!(matches!(err, SkyError::InvalidInput { .. }), "{err}");

    // Recovering an empty directory is a fresh start, not an error.
    let dir = tmpdir("fresh");
    let (rt, report) =
        IngestRuntime::recover(config(1, Some(&dir), None), &|_, _| None).expect("fresh");
    assert!(report.streams.is_empty());
    assert!(!report.resumed_from_snapshot);
    drop(rt);

    // A dirty directory cannot be silently reused by a fresh runtime.
    {
        let mut cfg = config(1, Some(&dir), None);
        cfg.durability
            .as_mut()
            .expect("dur")
            .checkpoint_every_epochs = 1;
        let mut rt = IngestRuntime::new(cfg);
        let a = rt
            .open_stream("a", m0, w0, IngestOptions::default())
            .unwrap();
        for seg in &s0[..40] {
            rt.push(a, seg).unwrap();
        }
    }
    let mut fresh = IngestRuntime::new(config(1, Some(&dir), None));
    let err = fresh
        .open_stream("a", m0, w0, IngestOptions::default())
        .unwrap_err();
    assert!(matches!(err, SkyError::CorruptWal { .. }), "{err}");
    drop(fresh);

    // A corrupted checkpoint is typed corruption, not a panic.
    let ckpt = vetl::skyscraper::runtime::checkpoint_path(&dir);
    let mut bytes = std::fs::read(&ckpt).expect("read ckpt");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&ckpt, &bytes).expect("write ckpt");
    let resolve = move |_slot: usize, _id: &str| Some((m0, w0 as &(dyn Workload + 'static)));
    let Err(err) = IngestRuntime::recover(config(1, Some(&dir), None), &resolve) else {
        panic!("corrupt checkpoint must fail recovery");
    };
    assert!(matches!(err, SkyError::CorruptWal { .. }), "{err}");

    // An unresolvable stream is typed, not a panic.
    bytes[mid] ^= 0xFF;
    std::fs::write(&ckpt, &bytes).expect("restore ckpt");
    let Err(err) = IngestRuntime::recover(config(1, Some(&dir), None), &|_, _| None) else {
        panic!("unresolvable stream must fail recovery");
    };
    assert!(matches!(err, SkyError::InvalidInput { .. }), "{err}");

    // With the checkpoint restored and the resolver back, recovery works.
    let (rt, report) =
        IngestRuntime::recover(config(1, Some(&dir), None), &resolve).expect("recover");
    assert_eq!(report.streams[0].accepted_segments, 40);
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutated_journal_bytes_never_panic_recovery() {
    let streams = fixture();
    let (w0, m0, s0) = &streams[0];
    let dir = tmpdir("fuzz");
    {
        // Journal-only durability (no snapshots) so recovery exercises the
        // full replay path over the mutated file.
        let mut cfg = config(1, Some(&dir), None);
        cfg.durability
            .as_mut()
            .expect("dur")
            .checkpoint_every_epochs = 0;
        let mut rt = IngestRuntime::new(cfg);
        let a = rt
            .open_stream("a", m0, w0, IngestOptions::default())
            .unwrap();
        for seg in &s0[..QUOTA + 17] {
            rt.push(a, seg).unwrap();
        }
    }
    let wal = vetl::skyscraper::runtime::wal_path(&dir);
    let pristine = std::fs::read(&wal).expect("read wal");
    let resolve = move |_slot: usize, _id: &str| Some((m0, w0 as &(dyn Workload + 'static)));
    let mut rng = StdRng::seed_from_u64(chaos_seed() ^ 0xF022);
    for _ in 0..60 {
        let mut mutated = pristine.clone();
        match rng.gen_range(0..3u8) {
            0 => {
                let i = rng.gen_range(0..mutated.len());
                mutated[i] ^= 1 << rng.gen_range(0..8u8);
            }
            1 => {
                let cut = rng.gen_range(0..mutated.len());
                mutated.truncate(cut);
            }
            2 => {
                let start = rng.gen_range(0..mutated.len());
                let end = (start + rng.gen_range(1..64usize)).min(mutated.len());
                mutated[start..end].iter_mut().for_each(|b| *b = 0);
            }
            _ => unreachable!(),
        }
        std::fs::write(&wal, &mutated).expect("write");
        // Must never panic: either a clean (possibly shortened) recovery or
        // a typed corruption error.
        match IngestRuntime::recover(config(1, Some(&dir), None), &resolve) {
            Ok((rt, report)) => {
                assert!(report.streams.len() <= 1);
                drop(rt);
            }
            Err(SkyError::CorruptWal { .. }) | Err(SkyError::WalIo { .. }) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
        // recover() may have rewritten the files; restore the fixture.
        let _ = std::fs::remove_file(vetl::skyscraper::runtime::checkpoint_path(&dir));
        std::fs::write(&wal, &pristine).expect("restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
