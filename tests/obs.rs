//! Observability: the acceptance bar of `skyscraper::obs`.
//!
//! * **Recording is bitwise invisible**: for any churn schedule and any
//!   shard count, a run with an [`Obs`] attachment produces per-stream
//!   outcomes, plan records, and WAL bytes identical bit for bit to the
//!   same run without one — while the registry and flight recorder fill
//!   up on the side (the property would be vacuous otherwise).
//! * **One exposition surface**: the `Metrics` reply served over a
//!   socket equals an in-process `registry.snapshot()` of the same
//!   attachment, and wire replies do not change when recording turns on.
//! * Satellites: `total_lag` excludes closed slots under churn, an
//!   injected [`ManualClock`] pins the rate metrics exactly, per-stream
//!   metrics track mid-run open/close churn, and the dedup counters
//!   attribute lookups/hits only when dedup is actually on.
//!
//! Environment knobs (mirrored by the CI matrix): `VETL_SHARDS` — extra
//! shard count the properties run at (default 4).

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use rand::{rngs::StdRng, Rng, SeedableRng};

use vetl::prelude::*;
use vetl::skyscraper::obs::{CounterId, GaugeId, HistId};
use vetl::skyscraper::offline::run_offline;
use vetl::skyscraper::runtime::wal_path;
use vetl::skyscraper::testkit::{assert_multi_outcomes_bitwise_equal, ToyWorkload};
use vetl::skyscraper::{FittedModel, MultiOutcome};
use vetl::workloads::co_located_fleet;

const SHARED_BUDGET_USD: f64 = 0.6;
/// Short planning epochs (120 segments at 2 s) so runs cross barriers.
const REPLAN_SECS: f64 = 240.0;
const QUOTA: usize = 120;
const SEED: u64 = 17;
const TOTAL_CORES: f64 = 16.0;

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

struct Fixture {
    workload: ToyWorkload,
    model: FittedModel,
    /// Independent content per camera (the churn schedules).
    streams: Vec<Vec<Segment>>,
    /// Two cameras with bit-identical timelines (the dedup workload).
    identical: Vec<Vec<Segment>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let workload = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(41), 2.0);
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
        let streams = (0..3u64)
            .map(|v| {
                let mut c = SyntheticCamera::new(ContentParams::traffic_intersection(43 + v), 2.0);
                Recording::record(&mut c, 2.0 * 500.0).segments().to_vec()
            })
            .collect();
        let identical = co_located_fleet(
            ContentParams::traffic_intersection(41),
            2.0,
            2,
            0.0,
            2.0 * 360.0,
            99,
        );
        Fixture {
            workload,
            model,
            streams,
            identical,
        }
    })
}

fn rt_config(shards: usize, obs: Option<Arc<Obs>>) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        shared_cloud_budget_usd: SHARED_BUDGET_USD,
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(TOTAL_CORES),
        obs,
        ..RuntimeConfig::default()
    }
}

/// One churn schedule: `(round, camera, push_limit)` admissions and
/// `(round, handle)` closures over round-robin driving.
#[derive(Debug, Clone)]
struct Schedule {
    opens: Vec<(usize, usize, usize)>,
    closes: Vec<(usize, usize)>,
    rounds: usize,
}

/// Everything a run produces that the invisibility property compares:
/// the settled outcomes plus the planner-visible trajectory.
struct RunResult {
    outcome: MultiOutcome,
    epoch: usize,
    joint_plans: usize,
    /// `Debug` of the last joint plan — `{:?}` round-trips every f64, so
    /// string equality is bit equality.
    last_plan: String,
}

fn run_schedule(mut rt: IngestRuntime<'_>, schedule: &Schedule) -> RunResult {
    let f = fixture();
    // (handle, camera, cursor, open)
    let mut handles: Vec<(StreamId, usize, usize, bool)> = Vec::new();
    for round in 0..schedule.rounds {
        for &(at, cam, _) in &schedule.opens {
            if at == round {
                let id = rt
                    .open_stream(
                        format!("cam-{cam}"),
                        &f.model,
                        &f.workload,
                        IngestOptions::default(),
                    )
                    .expect("admission");
                handles.push((id, cam, 0, true));
            }
        }
        for &(at, h) in &schedule.closes {
            if at == round && handles[h].3 {
                rt.close_stream(handles[h].0).expect("close");
                handles[h].3 = false;
            }
        }
        for h in &mut handles {
            if !h.3 {
                continue;
            }
            let limit = schedule
                .opens
                .iter()
                .find(|&&(_, cam, _)| cam == h.1)
                .map(|&(_, _, l)| l)
                .unwrap_or(0);
            if h.2 < limit.min(f.streams[h.1].len()) {
                rt.push(h.0, &f.streams[h.1][h.2]).expect("push");
                h.2 += 1;
            } else {
                rt.close_stream(h.0).expect("exhausted close");
                h.3 = false;
            }
        }
    }
    let m = rt.metrics();
    RunResult {
        epoch: m.epoch,
        joint_plans: m.joint_plans,
        last_plan: format!("{:?}", rt.last_joint_plan()),
        outcome: rt.finish().expect("finish"),
    }
}

fn seeded_schedules(n: usize) -> Vec<Schedule> {
    let mut rng = StdRng::seed_from_u64(0x0B5);
    (0..n)
        .map(|_| {
            let open_at = rng.gen_range(1..2 * QUOTA);
            let close_at = rng.gen_range(1..2 * QUOTA);
            let len_a = rng.gen_range(QUOTA + 10..2 * QUOTA + 100);
            let len_c = rng.gen_range(100..QUOTA + 100);
            Schedule {
                opens: vec![(0, 0, len_a), (0, 1, 2 * QUOTA + 100), (open_at, 2, len_c)],
                closes: vec![(close_at, 0)],
                rounds: 2 * QUOTA + 100,
            }
        })
        .collect()
}

// ---- The tentpole property: recording on ≡ recording off. ----

#[test]
fn recording_is_bitwise_invisible_for_any_schedule_and_shard_count() {
    for (case, schedule) in seeded_schedules(2).iter().enumerate() {
        let reference = run_schedule(IngestRuntime::new(rt_config(1, None)), schedule);
        for shards in shard_counts() {
            let off = run_schedule(IngestRuntime::new(rt_config(shards, None)), schedule);
            let obs = Arc::new(Obs::new());
            let on = run_schedule(
                IngestRuntime::new(rt_config(shards, Some(obs.clone()))),
                schedule,
            );
            for (ctx, run) in [("off", &off), ("on", &on)] {
                assert_multi_outcomes_bitwise_equal(
                    &format!("case {case}: shards={shards} obs={ctx}"),
                    &reference.outcome,
                    &run.outcome,
                );
                assert_eq!(reference.epoch, run.epoch, "case {case} {ctx}: epoch");
                assert_eq!(
                    reference.joint_plans, run.joint_plans,
                    "case {case} {ctx}: joint_plans"
                );
                assert_eq!(
                    reference.last_plan, run.last_plan,
                    "case {case} {ctx}: last joint plan"
                );
            }

            // The property must not hold vacuously: the attachment filled
            // up while staying invisible.
            let total_pushed: u64 = schedule
                .opens
                .iter()
                .map(|&(_, cam, l)| l.min(fixture().streams[cam].len()) as u64)
                .sum();
            assert!(obs.registry.counter(CounterId::SessionPushes) > 0);
            assert!(obs.registry.counter(CounterId::SessionPushes) <= total_pushed);
            assert!(obs.registry.counter(CounterId::EpochBarriers) > 0);
            // Planning carries no solver state: one cold solve per joint
            // plan, counted and timed exactly once each. Every barrier runs
            // one joint plan; `finish` can cross a pending barrier after
            // `joint_plans` was read, so count plans as barriers.
            let plans = obs.registry.counter(CounterId::EpochBarriers);
            assert!(plans >= on.joint_plans as u64);
            assert_eq!(obs.registry.counter(CounterId::LpSolvesCold), plans);
            assert_eq!(obs.registry.hist(HistId::BarrierLpSolveCold).count(), plans);
            assert!(obs.flight.recorded() > 0, "flight recorder saw the run");
            let events = obs.flight.events();
            let tags: Vec<&str> = events.iter().map(|(_, e)| e.tag()).collect();
            assert!(tags.contains(&"epoch_open"));
            assert!(tags.contains(&"epoch_close"));
            assert!(tags.contains(&"plan_change"));
            // Sequence numbers are monotonic even after ring eviction.
            for w in events.windows(2) {
                assert!(w[0].0 < w[1].0, "flight seq monotonic");
            }
        }
    }
}

#[test]
fn recording_leaves_wal_bytes_identical() {
    let schedule = &seeded_schedules(1)[0];
    let tmp = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "vetl-obs-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let run = |dir: &PathBuf, obs: Option<Arc<Obs>>| {
        let mut cfg = rt_config(2, obs);
        cfg.durability = Some(DurabilityConfig {
            dir: dir.clone(),
            checkpoint_every_epochs: 0, // journal-only: every byte compared
        });
        run_schedule(IngestRuntime::new(cfg), schedule)
    };
    let (dir_off, dir_on) = (tmp("off"), tmp("on"));
    let obs = Arc::new(Obs::new());
    let off = run(&dir_off, None);
    let on = run(&dir_on, Some(obs.clone()));
    assert_multi_outcomes_bitwise_equal("durable obs on == off", &off.outcome, &on.outcome);
    let wal_off = std::fs::read(wal_path(&dir_off)).expect("wal off");
    let wal_on = std::fs::read(wal_path(&dir_on)).expect("wal on");
    assert_eq!(wal_off, wal_on, "recording never reaches the journal");
    assert!(
        obs.registry.counter(CounterId::WalAppends) > 0,
        "the WAL path was actually instrumented"
    );
    let _ = std::fs::remove_dir_all(&dir_off);
    let _ = std::fs::remove_dir_all(&dir_on);
}

// ---- Wire exposition. ----

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vetl-obs-{}-{tag}.sock", std::process::id()))
}

/// Drive one client over a unix socket: open two profile streams, push
/// `segs` segments each round-robin in batches, close, snapshot stats.
/// Returns the encoded `Stats` reply plus the drained outcomes.
fn served_run(tag: &str, obs: Option<Arc<Obs>>, segs: usize) -> (Vec<u8>, MultiOutcome) {
    let f = fixture();
    let mut svc = IngestService::new(rt_config(0, obs));
    svc.register_profile("cam0", &f.model, &f.workload);
    svc.register_profile("cam1", &f.model, &f.workload);
    let path = sock_path(tag);
    let server = NetServer::bind(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let (report, stats) = std::thread::scope(|s| {
        let serve = s.spawn(move || server.serve(svc).expect("serve"));
        let drive = || {
            let ep = Endpoint::Unix(path.clone());
            let mut c = NetClient::connect(&ep, NetClientConfig::default()).expect("connect");
            let a = c
                .open_stream("cam0", "cam-00", IngestOptions::default())
                .expect("open a");
            let b = c
                .open_stream("cam1", "cam-01", IngestOptions::default())
                .expect("open b");
            // Epoch-quota-aligned chunks: stream `a`'s batch fills its
            // mailbox exactly and `b`'s completes the epoch mid-batch, so
            // neither stream ever stalls waiting on the other's quota.
            for chunk in (0..segs).collect::<Vec<_>>().chunks(QUOTA) {
                let sa: Vec<Segment> = chunk.iter().map(|&i| f.streams[0][i]).collect();
                let sb: Vec<Segment> = chunk.iter().map(|&i| f.streams[1][i]).collect();
                c.push_batch(a, &sa).expect("push a");
                c.push_batch(b, &sb).expect("push b");
            }
            c.close_stream(a).expect("close a");
            c.close_stream(b).expect("close b");
            let stats = c.stats().expect("stats").encode();
            c.shutdown_server().expect("shutdown");
            stats
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(drive)) {
            Ok(stats) => (serve.join().expect("serve thread"), stats),
            Err(p) => {
                handle.stop();
                let _ = serve.join();
                std::panic::resume_unwind(p);
            }
        }
    });
    (stats, report.outcome)
}

#[test]
fn wire_replies_do_not_change_when_recording_turns_on() {
    const SEGS: usize = 2 * QUOTA + 50;
    let (stats_off, out_off) = served_run("wire-off", None, SEGS);
    let obs = Arc::new(Obs::new());
    let (stats_on, out_on) = served_run("wire-on", Some(obs.clone()), SEGS);
    assert_eq!(stats_off, stats_on, "Stats reply bytes identical");
    assert_multi_outcomes_bitwise_equal("served obs on == off", &out_off, &out_on);
    assert!(
        obs.registry.counter(CounterId::NetRequests) > 0,
        "the request path was actually instrumented"
    );
}

#[test]
fn get_metrics_over_socket_matches_in_process_snapshot() {
    let f = fixture();
    let obs = Arc::new(Obs::new());
    let mut svc = IngestService::new(rt_config(0, Some(obs.clone())));
    svc.register_profile("cam0", &f.model, &f.workload);
    let path = sock_path("scrape");
    let server = NetServer::bind(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    std::thread::scope(|s| {
        let serve = s.spawn(move || server.serve(svc).expect("serve"));
        let drive = || {
            let ep = Endpoint::Unix(path.clone());
            let mut c = NetClient::connect(&ep, NetClientConfig::default()).expect("connect");
            let a = c
                .open_stream("cam0", "cam-00", IngestOptions::default())
                .expect("open");
            let segs: Vec<Segment> = f.streams[0][..QUOTA].to_vec();
            c.push_batch(a, &segs).expect("push");
            let wire = c.get_metrics().expect("metrics");
            // The server books the request *before* snapshotting and is
            // idle afterwards, so the shared attachment has not moved.
            let local = obs.registry.snapshot();
            assert_eq!(wire, local, "wire snapshot == in-process registry");
            assert!(
                wire.counter("net_requests").unwrap() >= 3,
                "hello+open+push"
            );
            assert_eq!(
                wire.counter("mailbox_enqueues").unwrap(),
                QUOTA as u64,
                "every pushed segment was counted"
            );
            assert!(
                wire.gauge("skyscraper_epoch").is_none(),
                "snapshot names are unprefixed; the prefix is prometheus-only"
            );
            assert_eq!(
                wire.gauge("epoch"),
                Some(obs.registry.gauge(GaugeId::Epoch))
            );
            let rendered = wire.render_prometheus();
            assert!(rendered.contains("skyscraper_session_pushes_total"));
            assert!(rendered.contains("skyscraper_wallet_left_usd"));
            assert!(rendered.contains("skyscraper_net_request_seconds_bucket"));
            c.close_stream(a).expect("close");
            c.shutdown_server().expect("shutdown");
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(drive)) {
            Ok(()) => {
                serve.join().expect("serve thread");
            }
            Err(p) => {
                handle.stop();
                let _ = serve.join();
                std::panic::resume_unwind(p);
            }
        }
    });
}

// ---- Flight-recorder tracing of admission control. ----

#[test]
fn admission_rejection_and_backpressure_are_traced() {
    let f = fixture();
    let obs = Arc::new(Obs::new());
    let mut cfg = rt_config(2, Some(obs.clone()));
    cfg.total_cores = Some(2.0); // 2 streams fit; a third gets ⌊2/3⌋ = 0
    let mut rt = IngestRuntime::new(cfg);
    let a = rt
        .open_stream("a", &f.model, &f.workload, IngestOptions::default())
        .expect("open a");
    let _b = rt
        .open_stream("b", &f.model, &f.workload, IngestOptions::default())
        .expect("open b");
    let err = rt
        .open_stream("late", &f.model, &f.workload, IngestOptions::default())
        .unwrap_err();
    assert!(matches!(err, SkyError::UnderProvisioned { .. }));
    assert_eq!(obs.registry.counter(CounterId::AdmissionsAccepted), 2);
    assert_eq!(obs.registry.counter(CounterId::AdmissionsRejected), 1);

    // Feed only `a`: its mailbox fills to the epoch quota and pushes back.
    for seg in &f.streams[0][..QUOTA] {
        rt.push(a, seg).expect("within quota");
    }
    assert!(rt.push(a, &f.streams[0][QUOTA]).is_err());
    assert_eq!(obs.registry.counter(CounterId::BackpressureRejections), 1);

    let events = obs.flight.events();
    let accepted: Vec<&str> = events
        .iter()
        .filter_map(|(_, e)| match e {
            TraceEvent::AdmissionAccepted { workload_id, .. } => Some(workload_id.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(accepted, vec!["a", "b"]);
    assert!(events.iter().any(|(_, e)| matches!(
        e,
        TraceEvent::AdmissionRejected { workload_id, .. } if workload_id == "late"
    )));
    assert!(events.iter().any(|(_, e)| matches!(
        e,
        TraceEvent::Backpressure { slot, queued, capacity }
            if *slot == a.index() && queued == capacity
    )));
}

// ---- Satellites: metrics correctness under churn and injected clocks. ----

#[test]
fn total_lag_excludes_closed_slots() {
    let mk = |slot: usize, active: bool, lag: usize| StreamMetrics {
        slot,
        workload_id: format!("cam-{slot}"),
        active,
        segments_processed: 0,
        lag_segments: lag,
        buffer_bytes: 0.0,
        backlog_work: 0.0,
        cloud_spent_usd: 0.0,
        overflows: 0,
        dedup: DedupStats::default(),
    };
    let m = RuntimeMetrics {
        shards: 2,
        epoch: 3,
        joint_plans: 4,
        wallet_left_usd: 0.1,
        segments_processed: 500,
        wall_secs: 1.0,
        segs_per_sec: 500.0,
        dedup: DedupStats::default(),
        dedup_cache_entries: 0,
        streams: vec![mk(0, true, 40), mk(1, false, 70), mk(2, true, 2)],
    };
    // Regression: slot 1 settled with a residual lag reading; counting it
    // would overstate live ingress pressure under open/close churn.
    assert_eq!(m.total_lag(), 42);

    let reg = MetricsRegistry::new();
    m.sync_registry(&reg);
    assert_eq!(reg.gauge(GaugeId::TotalLagSegments), 42.0);
    assert_eq!(reg.gauge(GaugeId::ActiveStreams), 2.0);
}

#[test]
fn manual_clock_pins_rate_metrics_exactly() {
    let f = fixture();
    let clock = Arc::new(ManualClock::new(100.0));
    let mut cfg = rt_config(1, None);
    cfg.clock = Some(clock.clone());
    let mut rt = IngestRuntime::new(cfg);
    let a = rt
        .open_stream("a", &f.model, &f.workload, IngestOptions::default())
        .expect("open a");
    let b = rt
        .open_stream("b", &f.model, &f.workload, IngestOptions::default())
        .expect("open b");
    for i in 0..QUOTA {
        rt.push(a, &f.streams[0][i]).expect("push");
        rt.push(b, &f.streams[1][i]).expect("push");
    }
    clock.advance(8.0);
    let m = rt.metrics();
    assert_eq!(m.wall_secs.to_bits(), 8.0_f64.to_bits(), "exact wall clock");
    assert_eq!(
        m.segs_per_sec.to_bits(),
        ((2 * QUOTA) as f64 / 8.0).to_bits(),
        "exact rate: one dispatched epoch over 8 injected seconds"
    );
    clock.set(90.0); // time went backwards: clamped, not negative
    assert_eq!(rt.metrics().wall_secs, 0.0);
    rt.close_stream(a).expect("close");
    rt.close_stream(b).expect("close");
    rt.finish().expect("finish");
}

#[test]
fn stream_metrics_track_mid_run_churn() {
    let f = fixture();
    let mut rt = IngestRuntime::new(rt_config(2, None));
    let a = rt
        .open_stream("a", &f.model, &f.workload, IngestOptions::default())
        .expect("open a");
    let b = rt
        .open_stream("b", &f.model, &f.workload, IngestOptions::default())
        .expect("open b");
    for i in 0..QUOTA {
        rt.push(a, &f.streams[0][i]).expect("push");
        rt.push(b, &f.streams[1][i]).expect("push");
    }
    // Epoch dispatched; close `b`. The close marker is in-band, so `b`
    // stays active until the next barrier processes it.
    rt.close_stream(b).expect("close b");
    assert!(rt.metrics().streams[b.index()].active, "close is in-band");
    // A second full `a` epoch fires the barrier (the queued close marker
    // un-gates it), settling `b`; 50 more segments then queue into `a`.
    for i in QUOTA..2 * QUOTA {
        rt.push(a, &f.streams[0][i]).expect("push");
    }
    for i in 2 * QUOTA..2 * QUOTA + 50 {
        rt.push(a, &f.streams[0][i]).expect("push");
    }
    let m = rt.metrics();
    assert!(m.streams[a.index()].active);
    assert_eq!(m.streams[a.index()].segments_processed, 2 * QUOTA);
    assert_eq!(m.streams[a.index()].lag_segments, 50);
    assert!(!m.streams[b.index()].active, "settled at the barrier");
    assert_eq!(m.streams[b.index()].segments_processed, QUOTA);
    assert_eq!(
        m.total_lag(),
        m.streams
            .iter()
            .filter(|s| s.active)
            .map(|s| s.lag_segments)
            .sum::<usize>()
    );
    rt.close_stream(a).expect("close a");
    let out = rt.finish().expect("finish");
    assert_eq!(out.streams.len(), 2, "closed streams keep their outcome");
}

#[test]
fn dedup_counters_attribute_lookups_only_when_dedup_is_on() {
    let f = fixture();
    let feed = 2 * QUOTA + 60;
    let run = |policy: Option<DedupPolicy>, obs: Arc<Obs>| {
        let mut cfg = rt_config(2, Some(obs));
        cfg.dedup = policy;
        let mut rt = IngestRuntime::new(cfg);
        // Camera 1 joins one epoch late, so its identical timeline looks
        // up entries camera 0 already published at the first barrier.
        let a = rt
            .open_stream("cam-0", &f.model, &f.workload, IngestOptions::default())
            .expect("open");
        let mut bid = None;
        let mut cursors = [0usize; 2];
        for round in 0..QUOTA + feed {
            if round == QUOTA {
                bid = Some(
                    rt.open_stream("cam-1", &f.model, &f.workload, IngestOptions::default())
                        .expect("open late"),
                );
            }
            for (k, id) in [(0, Some(a)), (1, bid)] {
                let Some(id) = id else { continue };
                if cursors[k] < feed {
                    rt.push(id, &f.identical[k][cursors[k]]).expect("push");
                    cursors[k] += 1;
                } else if cursors[k] == feed {
                    rt.close_stream(id).expect("close");
                    cursors[k] += 1;
                }
            }
        }
        rt.finish().expect("finish")
    };

    let obs_off = Arc::new(Obs::new());
    let disabled = run(None, obs_off.clone());
    assert_eq!(obs_off.registry.counter(CounterId::DedupLookups), 0);
    assert_eq!(obs_off.registry.counter(CounterId::DedupHits), 0);

    let obs_on = Arc::new(Obs::new());
    let deduped = run(Some(DedupPolicy::exact()), obs_on.clone());
    let total = |o: &MultiOutcome, f: fn(&DedupStats) -> u64| {
        o.streams.iter().map(|s| f(&s.outcome.dedup)).sum::<u64>()
    };
    assert_eq!(
        obs_on.registry.counter(CounterId::DedupLookups),
        total(&deduped, |d| d.lookups),
        "registry lookups == per-stream attribution"
    );
    assert_eq!(
        obs_on.registry.counter(CounterId::DedupHits),
        total(&deduped, |d| d.hits()),
        "registry hits == per-stream attribution"
    );
    assert!(
        obs_on.registry.counter(CounterId::DedupHits) > 0,
        "the staggered identical fleet actually hit"
    );
    // Exact-mode dedup stays invisible in the settled results themselves;
    // only the counters differ (covered in tests/dedup.rs — here we only
    // pin that segments processed match).
    for (d, e) in disabled.streams.iter().zip(&deduped.streams) {
        assert_eq!(d.outcome.segments, e.outcome.segments);
    }
}
