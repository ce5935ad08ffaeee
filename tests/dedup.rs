//! Cross-stream dedup: the acceptance bar of `skyscraper::dedupe`.
//!
//! * **Exact mode is bitwise invisible**: for any schedule and any shard
//!   count, a run with `DedupPolicy::exact()` produces per-stream outcomes
//!   bitwise identical to the same run with dedup disabled — while still
//!   reporting cache hits on redundant fleets (the win is skipped compute,
//!   not changed results).
//! * **Tolerant mode is shard-count independent**: near-duplicate hits
//!   change spend and quality, but identically so for the single-threaded
//!   reference (`testkit::reference`) and the sharded runtime at every
//!   shard count.
//! * **Warm-cache crash recovery replays hit/miss decisions bitwise**,
//!   cross-checked against the journaled `DedupHit` counters.
//!
//! Environment knobs (mirrored by the CI matrix): `VETL_SHARDS` — extra
//! shard count the properties run at (default 4).

use std::path::PathBuf;
use std::sync::OnceLock;

use vetl::prelude::*;
use vetl::skyscraper::offline::run_offline;
use vetl::skyscraper::runtime::MAILBOX_BATCH;
use vetl::skyscraper::testkit::reference::Reference;
use vetl::skyscraper::testkit::{assert_multi_outcomes_bitwise_equal, ToyWorkload};
use vetl::skyscraper::{FittedModel, MultiOutcome};
use vetl::workloads::co_located_fleet;

const SHARED_BUDGET_USD: f64 = 0.6;
/// Short planning epochs (120 segments at 2 s) so runs cross many barriers.
const REPLAN_SECS: f64 = 240.0;
const QUOTA: usize = 120;
const SEED: u64 = 13;
const TOTAL_CORES: f64 = 16.0;
/// Fleet size; camera `k` is admitted `k` epochs after camera 0, so its
/// segments look up entries the earlier cameras already published.
const CAMERAS: usize = 3;
/// Segments each camera feeds (2.5 epochs).
const FEED: usize = 2 * QUOTA + 60;

fn alt_shards() -> usize {
    std::env::var("VETL_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

fn shard_counts() -> Vec<usize> {
    let mut s = vec![1, 2, alt_shards()];
    s.sort_unstable();
    s.dedup();
    s
}

struct Fleet {
    workload: ToyWorkload,
    model: FittedModel,
    /// Jitter 0: every camera's timeline is bit-identical to camera 0's.
    identical: Vec<Vec<Segment>>,
    /// Small per-camera perceptual jitter (within one tolerant bucket most
    /// of the time): the near-duplicate workload shape.
    jittered: Vec<Vec<Segment>>,
}

/// One fitted model shared by the whole fleet — co-located cameras answer
/// the same extraction question, which is exactly what puts them in one
/// dedup scope (scope = model + workload fingerprints).
fn fixture() -> &'static Fleet {
    static FIXTURE: OnceLock<Fleet> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let workload = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(77), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let (model, _) = run_offline(
            &workload,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(16),
            &SkyscraperConfig::fast_test(),
        )
        .expect("fit");
        let secs = 2.0 * FEED as f64;
        let identical = co_located_fleet(
            ContentParams::traffic_intersection(77),
            2.0,
            CAMERAS,
            0.0,
            secs,
            99,
        );
        let jittered = co_located_fleet(
            ContentParams::traffic_intersection(77),
            2.0,
            CAMERAS,
            0.004,
            secs,
            99,
        );
        Fleet {
            workload,
            model,
            identical,
            jittered,
        }
    })
}

/// The runtime and its reference behind one driving interface.
trait Engine {
    fn open(&mut self, id: String) -> StreamId;
    fn push(&mut self, id: StreamId, seg: &Segment);
    fn close(&mut self, id: StreamId);
    fn done(self: Box<Self>) -> MultiOutcome;
}

impl Engine for Reference<'_> {
    fn open(&mut self, id: String) -> StreamId {
        let f = fixture();
        Reference::open(self, id, &f.model, &f.workload, IngestOptions::default())
            .expect("admission")
    }
    fn push(&mut self, id: StreamId, seg: &Segment) {
        Reference::push(self, id, seg).expect("reference push");
    }
    fn close(&mut self, id: StreamId) {
        Reference::close(self, id);
    }
    fn done(self: Box<Self>) -> MultiOutcome {
        self.finish()
    }
}

struct Sharded<'a>(IngestRuntime<'a>);

impl Engine for Sharded<'_> {
    fn open(&mut self, id: String) -> StreamId {
        let f = fixture();
        self.0
            .open_stream(id, &f.model, &f.workload, IngestOptions::default())
            .expect("admission")
    }
    fn push(&mut self, id: StreamId, seg: &Segment) {
        self.0.push(id, seg).expect("runtime push");
    }
    fn close(&mut self, id: StreamId) {
        self.0.close_stream(id).expect("runtime close");
    }
    fn done(self: Box<Self>) -> MultiOutcome {
        self.0.finish().expect("runtime finish")
    }
}

/// Per-camera admission rounds: camera `k` joins `k` epochs after camera
/// 0, so its lookups land on entries the earlier cameras published.
fn stagger() -> Vec<usize> {
    (0..CAMERAS).map(|k| k * QUOTA).collect()
}

/// Drive the staggered fleet: camera `k` is admitted at round `opens[k]`,
/// then every open camera pushes one segment per round; exhausted cameras
/// close.
fn run_fleet(
    mut engine: Box<dyn Engine + '_>,
    cams: &[Vec<Segment>],
    opens: &[usize],
) -> MultiOutcome {
    let feed = cams[0].len();
    let rounds = opens.iter().max().copied().unwrap_or(0) + feed;
    // (handle, cursor, open)
    let mut handles: Vec<(StreamId, usize, bool)> = Vec::new();
    for round in 0..rounds {
        for (k, _) in cams.iter().enumerate() {
            if opens[k] == round {
                let id = engine.open(format!("cam-{k}"));
                handles.push((id, 0, true));
            }
        }
        for (k, h) in handles.iter_mut().enumerate() {
            if !h.2 {
                continue;
            }
            if h.1 < feed {
                engine.push(h.0, &cams[k][h.1]);
                h.1 += 1;
            } else {
                engine.close(h.0);
                h.2 = false;
            }
        }
    }
    engine.done()
}

fn runtime_config(
    policy: Option<DedupPolicy>,
    shards: usize,
    dir: Option<&PathBuf>,
) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        shared_cloud_budget_usd: SHARED_BUDGET_USD,
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(TOTAL_CORES),
        dedup: policy,
        durability: dir.map(|d| DurabilityConfig {
            dir: d.clone(),
            checkpoint_every_epochs: 0,
        }),
        ..RuntimeConfig::default()
    }
}

fn reference(policy: Option<DedupPolicy>) -> Box<dyn Engine + 'static> {
    Box::new(Reference::new(&runtime_config(policy, 1, None)))
}

fn runtime(policy: Option<DedupPolicy>, shards: usize) -> Box<dyn Engine + 'static> {
    Box::new(Sharded(IngestRuntime::new(runtime_config(
        policy, shards, None,
    ))))
}

/// Zero the dedup counters of every stream: the exact-mode property is
/// that everything *else* is bitwise identical to a dedup-disabled run
/// (the counters themselves are the only intentional difference).
fn strip_dedup_counters(out: &mut MultiOutcome) {
    for s in &mut out.streams {
        s.outcome.dedup = DedupStats::default();
    }
}

fn total_dedup(out: &MultiOutcome) -> DedupStats {
    let mut d = DedupStats::default();
    for s in &out.streams {
        d.absorb(&s.outcome.dedup);
    }
    d
}

#[test]
fn exact_mode_is_bitwise_identical_to_disabled_for_any_shard_count() {
    let f = fixture();
    // Dedup disabled, in the reference.
    let disabled = run_fleet(reference(None), &f.identical, &stagger());
    assert_eq!(total_dedup(&disabled).lookups, 0, "disabled never consults");

    // Exact mode must reproduce it bit for bit — reference and runtime alike —
    // while actually hitting (the staggered identical fleet guarantees
    // cross-stream duplicates against published entries).
    let policy = Some(DedupPolicy::exact());
    let mut exact_ref = run_fleet(reference(policy), &f.identical, &stagger());
    let ref_stats = total_dedup(&exact_ref);
    assert_eq!(ref_stats.lookups, (CAMERAS * FEED) as u64);
    assert!(
        ref_stats.hits() > 0,
        "identical fleet must hit: {ref_stats:?}"
    );
    assert_eq!(
        ref_stats.spend_saved_usd, 0.0,
        "exact mode charges cached spend bitwise, it saves work not dollars"
    );
    strip_dedup_counters(&mut exact_ref);
    assert_multi_outcomes_bitwise_equal("exact == disabled (reference)", &disabled, &exact_ref);

    for shards in shard_counts() {
        let mut out = run_fleet(runtime(policy, shards), &f.identical, &stagger());
        assert!(total_dedup(&out).hits() > 0, "shards={shards} must hit");
        strip_dedup_counters(&mut out);
        assert_multi_outcomes_bitwise_equal(
            &format!("exact == disabled (shards={shards})"),
            &disabled,
            &out,
        );
    }

    // The property holds on *any* schedule, including the jittered fleet
    // where exact signatures rarely collide.
    let disabled_j = run_fleet(reference(None), &f.jittered, &stagger());
    let mut exact_j = run_fleet(runtime(policy, 2), &f.jittered, &stagger());
    strip_dedup_counters(&mut exact_j);
    assert_multi_outcomes_bitwise_equal("exact == disabled (jittered)", &disabled_j, &exact_j);
}

/// Epochs of two mailbox batches and a tail.
const LONG_QUOTA: usize = 2 * MAILBOX_BATCH + 77;

/// The identical fleet over 2.5 long epochs.
fn long_identical() -> &'static Vec<Vec<Segment>> {
    static LONG: OnceLock<Vec<Vec<Segment>>> = OnceLock::new();
    LONG.get_or_init(|| {
        let secs = 2.0 * (2 * LONG_QUOTA + 60) as f64;
        co_located_fleet(
            ContentParams::traffic_intersection(77),
            2.0,
            CAMERAS,
            0.0,
            secs,
            99,
        )
    })
}

fn long_config(policy: Option<DedupPolicy>, shards: usize) -> RuntimeConfig {
    RuntimeConfig {
        replan_interval_secs: Some(2.0 * LONG_QUOTA as f64),
        ..runtime_config(policy, shards, None)
    }
}

#[test]
fn exact_mode_is_bitwise_identical_to_disabled_at_long_epochs() {
    // Batches dispatch inside every epoch; the lookups between two of them
    // still see the cache as the last barrier published it.
    let cams = long_identical();
    let opens: Vec<usize> = (0..CAMERAS).map(|k| k * LONG_QUOTA).collect();
    let disabled = run_fleet(
        Box::new(Reference::new(&long_config(None, 1))),
        cams,
        &opens,
    );
    for shards in shard_counts() {
        let rt = IngestRuntime::new(long_config(Some(DedupPolicy::exact()), shards));
        let mut out = run_fleet(Box::new(Sharded(rt)), cams, &opens);
        assert!(total_dedup(&out).hits() > 0, "shards={shards} must hit");
        strip_dedup_counters(&mut out);
        assert_multi_outcomes_bitwise_equal(
            &format!("long epochs: exact == disabled (shards={shards})"),
            &disabled,
            &out,
        );
    }
}

#[test]
fn tolerant_mode_is_shard_count_independent_and_saves_spend() {
    let f = fixture();
    let policy = Some(DedupPolicy::near(0.02));
    let expected = run_fleet(reference(policy), &f.jittered, &stagger());
    let stats = total_dedup(&expected);
    assert!(
        stats.hits_full > 0,
        "near-duplicate fleet must take full hits: {stats:?}"
    );
    assert!(stats.hit_rate() > 0.0);
    assert!(
        stats.spend_saved_usd > 0.0 || stats.bytes_saved > 0.0,
        "full hits must book savings: {stats:?}"
    );

    // Tolerant hits change outcomes (that is the point) — but identically
    // at every shard count, dedup counters included.
    for shards in shard_counts() {
        let out = run_fleet(runtime(policy, shards), &f.jittered, &stagger());
        assert_multi_outcomes_bitwise_equal(
            &format!("tolerant reference == runtime (shards={shards})"),
            &expected,
            &out,
        );
    }

    // Cameras 0 and 1 publish the same buckets with different results in
    // the same epochs and camera 2 reads them an epoch later: which result
    // it gets is decided by the slot-order publish alone.
    let opens = [0, 0, QUOTA];
    let expected = run_fleet(reference(policy), &f.jittered, &opens);
    assert!(total_dedup(&expected).hits_full > 0);
    for shards in shard_counts() {
        let out = run_fleet(runtime(policy, shards), &f.jittered, &opens);
        assert_multi_outcomes_bitwise_equal(
            &format!("same-epoch publishers (shards={shards})"),
            &expected,
            &out,
        );
    }
}

#[test]
fn stale_entries_are_recomputed_not_served() {
    let f = fixture();
    // An entry born at epoch B survives the age-`max_age` sweeps through
    // epoch B+2 (with `max_age_epochs: 1`), and a lookup during that final
    // epoch sees age 2 > max_age — the one window where the cache answers
    // `StaleHit` instead of serving. A camera lagging one quota behind looks
    // up at age 0 and a two-quota laggard at age 1, so staleness needs a
    // *three*-quota laggard: camera 2 joins three epochs after camera 0.
    let opens = [0, QUOTA, 3 * QUOTA];
    let policy = Some(DedupPolicy {
        max_age_epochs: 1,
        ..DedupPolicy::exact()
    });
    let stale_run = run_fleet(reference(policy), &f.identical, &opens);
    let stats = total_dedup(&stale_run);
    assert!(
        stats.stale > 0,
        "three-quota laggard must see stale entries: {stats:?}"
    );
    assert!(
        stats.hits() > 0,
        "the one-quota laggard still hits fresh entries: {stats:?}"
    );

    // The runtime ages entries identically — stale counters included.
    for shards in shard_counts() {
        let rt_out = run_fleet(runtime(policy, shards), &f.identical, &opens);
        assert_multi_outcomes_bitwise_equal(
            &format!("staleness reference == runtime (shards={shards})"),
            &stale_run,
            &rt_out,
        );
    }

    // Exact mode stays bitwise invisible even when staleness forces
    // recomputes — the recompute produces the same bits the hit would have.
    let disabled = run_fleet(reference(None), &f.identical, &opens);
    let mut stripped = stale_run;
    strip_dedup_counters(&mut stripped);
    assert_multi_outcomes_bitwise_equal("stale recompute == disabled", &disabled, &stripped);
}

/// Warm-cache chaos: crash a durable dedup run mid-flight (after the cache
/// has published entries and streams have taken hits), recover from the
/// journal alone, resume, and finish. Replay re-executes every hit/miss
/// decision and the WAL's cumulative `DedupHit` counters cross-check each
/// barrier; the final outcomes — dedup counters included — must be bitwise
/// identical to the uninterrupted run.
#[test]
fn warm_cache_crash_recovery_replays_hits_bitwise() {
    let f = fixture();
    for (tag, policy, cams) in [
        ("exact", DedupPolicy::exact(), &f.identical),
        ("tolerant", DedupPolicy::near(0.02), &f.jittered),
    ] {
        let policy = Some(policy);
        let reference = run_fleet(runtime(policy, 2), cams, &stagger());
        assert!(total_dedup(&reference).hits() > 0, "{tag}: warm cache");

        // Crash two epochs in: camera 1 is admitted and already hitting.
        let crash_round = 2 * QUOTA + 17;
        let dir = std::env::temp_dir().join(format!(
            "vetl-dedup-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut pushed = [0usize; CAMERAS];
        {
            let mut rt = IngestRuntime::new(runtime_config(policy, 2, Some(&dir)));
            let mut handles: Vec<StreamId> = Vec::new();
            'drive: for round in 0..crash_round {
                for k in 0..CAMERAS {
                    if k * QUOTA == round {
                        handles.push(
                            rt.open_stream(
                                format!("cam-{k}"),
                                &f.model,
                                &f.workload,
                                IngestOptions::default(),
                            )
                            .expect("admission"),
                        );
                    }
                }
                for (k, id) in handles.iter().enumerate() {
                    if pushed[k] < FEED {
                        rt.push(*id, &cams[k][pushed[k]]).expect("push");
                        pushed[k] += 1;
                    }
                    if round == crash_round - 1 {
                        break 'drive; // die mid-round, runtime dropped
                    }
                }
            }
        }

        let resolve = |_slot: usize, id: &str| {
            assert!(id.starts_with("cam-"));
            let ff = fixture();
            Some((&ff.model, &ff.workload as &(dyn Workload + 'static)))
        };
        let (mut rt, report) =
            IngestRuntime::recover(runtime_config(policy, 4, Some(&dir)), &resolve)
                .expect("recover");
        assert_eq!(report.replay_errors, 0, "{tag}: clean replay");
        let m = rt.metrics();
        assert!(
            m.dedup.hits() > 0,
            "{tag}: recovery must rebuild a warm cache, got {:?}",
            m.dedup
        );

        // Resume exactly after the durable prefix and finish the schedule.
        // Camera `k`'s segment for round `r` is `r - k * QUOTA`; pushes the
        // journal already holds are skipped, never re-fed.
        let rounds = (CAMERAS - 1) * QUOTA + FEED;
        let mut handles: Vec<StreamId> = (0..report.streams.len())
            .map(StreamId::from_index)
            .collect();
        let mut cursor: Vec<usize> = report.streams.iter().map(|s| s.accepted_segments).collect();
        let mut open: Vec<bool> = report.streams.iter().map(|s| !s.closed).collect();
        for round in 0..rounds {
            if handles.len() < CAMERAS && handles.len() * QUOTA == round {
                let k = handles.len();
                handles.push(
                    rt.open_stream(
                        format!("cam-{k}"),
                        &f.model,
                        &f.workload,
                        IngestOptions::default(),
                    )
                    .expect("admission"),
                );
                cursor.push(0);
                open.push(true);
            }
            for k in 0..handles.len() {
                if !open[k] || round < k * QUOTA {
                    continue;
                }
                let seg_idx = round - k * QUOTA;
                if seg_idx >= FEED {
                    rt.close_stream(handles[k]).expect("close");
                    open[k] = false;
                } else if seg_idx >= cursor[k] {
                    rt.push(handles[k], &cams[k][seg_idx]).expect("resume push");
                    cursor[k] = seg_idx + 1;
                }
            }
        }
        let out = rt.finish().expect("finish");
        assert_multi_outcomes_bitwise_equal(
            &format!("{tag}: warm-cache crash recovery"),
            &reference,
            &out,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
