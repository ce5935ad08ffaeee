//! Per-layer metrics: where the time of the end-to-end numbers goes.
//!
//! Two sources, both outside the program. (1) The six workloads re-run at
//! reduced size with the bench-side span recorder on (and, for the stage
//! histograms that already exist as public API, a registry attached).
//! (2) A **layer ladder**: one schedule (V = 32, 120-segment epochs)
//! driven through successively thicker stacks, each layer's cost being the
//! difference of adjacent legs —
//!
//! * L0 standalone `IngestSession::push` loop
//! * L1 `IngestRuntime`, memory only
//! * L2 + journal
//! * L3 + snapshot every epoch
//! * L4 `IngestService::push_batch`, in-process
//! * L5 `NetClient` over the socket (client and server on one core, as in
//!   the wire workloads; once more on all cores, for what thread placement
//!   adds)
//!
//! L2–L5 must settle bitwise equal to L1 before their times are
//! subtracted (L0 plans per stream instead of jointly, so only its
//! per-push time is used). L1, L3 and L5 are repeated with a registry
//! attached to read the stage histograms and to price recording itself.

use std::time::Instant;

use crate::report::{Better, Check, WorkloadResult};
use crate::stats::{ladder_step_ns, median};
use crate::sut::{
    self, Arrival, Cores, Fixture, JointLp, ObsHandle, ObsView, Outcome, Res, Rt, RtSpec, Sess,
    StreamId, Svc, Switcher,
};
use crate::tmp::{copy_dir, dir_bytes, TempRoot};
use crate::trace::Tracer;
use crate::workloads::{self, Env, Sizes};

/// Definition of one per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// `layer.metric` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, grouped by the module it measures.
pub const PER_LAYER: [LayerDef; 68] = [
    // vetl-net
    lo("net.connect_us", "us"),
    lo("net.rtt_us_empty", "us"),
    lo("net.push_rtt_us_1seg", "us"),
    lo("net.push_rtt_us_1seg_p99", "us"),
    lo("net.push_rtt_us_30seg", "us"),
    lo("net.overhead_us_per_msg", "us"),
    lo("net.overhead_us_per_msg_all_cores", "us"),
    lo("net.server_cpu_us_per_msg", "us"),
    lo("net.retries", "count"),
    lo("net.refed_segs", "count"),
    lo("net.gen_late_share", "ratio"),
    // serve::proto
    lo("proto.encode_push_ns_1seg", "ns"),
    lo("proto.encode_push_ns_per_seg_30", "ns"),
    lo("proto.decode_push_ns_1seg", "ns"),
    lo("proto.decode_push_ns_per_seg_30", "ns"),
    lo("proto.reply_codec_ns", "ns"),
    lo("proto.frame_bytes_1seg", "bytes"),
    // serve::IngestService
    lo("service.push_ns_per_seg", "ns"),
    lo("service.open_us", "us"),
    // runtime: mailbox + dispatch
    lo("runtime.enqueue_ns", "ns"),
    lo("runtime.dispatch_ms_v64", "ms"),
    lo("runtime.overhead_ns_per_seg", "ns"),
    lo("runtime.close_us", "us"),
    lo("runtime.finish_ms", "ms"),
    lo("runtime.epochs", "count"),
    lo("runtime.joint_plans", "count"),
    // runtime: epoch barrier
    lo("barrier.ms_v64", "ms"),
    lo("obs.barrier_settle_ms", "ms"),
    lo("obs.barrier_lp_warm_ms", "ms"),
    lo("obs.barrier_lp_cold_ms", "ms"),
    lo("obs.barrier_resplit_ms", "ms"),
    lo("obs.barrier_broadcast_ms", "ms"),
    lo("obs.batch_dispatch_ms", "ms"),
    lo("obs.mailbox_drain_us", "us"),
    hi("planner.warm_ratio", "ratio"),
    lo("barrier.unattributed_share", "ratio"),
    // runtime: admission
    lo("admission.open_ms_v8", "ms"),
    lo("admission.open_ms_v32", "ms"),
    lo("admission.open_ms_v64", "ms"),
    lo("admission.open_ms_v128", "ms"),
    lo("admission.growth_exp", "log2"),
    lo("obs.lp_solves_cold", "count"),
    // online::session / switcher / planner
    lo("session.push_ns", "ns"),
    lo("session.push_arrival_ns", "ns"),
    lo("session.late_share", "ratio"),
    lo("switcher.decide_ns", "ns"),
    lo("planner.joint_lp_cold_ms_v64", "ms"),
    lo("planner.joint_lp_warm_ms_v64", "ms"),
    // runtime::wal
    lo("wal.append_ns_per_seg", "ns"),
    lo("wal.bytes_per_seg", "bytes"),
    lo("wal.snapshot_ms", "ms"),
    lo("wal.snapshot_bytes", "bytes"),
    lo("wal.snapshot_share", "ratio"),
    lo("obs.wal_append_ns", "ns"),
    lo("obs.wal_fsync_ms", "ms"),
    lo("obs.wal_fsyncs", "count"),
    // recovery
    hi("recovery.replay_segs_per_s", "segs/s"),
    lo("recovery.snapshot_load_ms", "ms"),
    lo("recovery.tail_segs", "count"),
    lo("recovery.discarded_bytes", "bytes"),
    // dedupe
    hi("dedupe.hit_rate", "ratio"),
    hi("dedupe.lookups", "count"),
    lo("dedupe.ns_per_lookup", "ns"),
    lo("dedupe.cache_entries", "count"),
    hi("dedupe.work_saved_core_s", "core-s"),
    lo("obs.dedup_lookup_ns", "ns"),
    // obs / offline
    lo("obs.overhead_pct", "%"),
    lo("offline.fit_s", "s"),
];

/// Fleet size and epoch length of the ladder (never scaled).
const LADDER_V: usize = 32;
const LADDER_EPOCH: usize = 120;

/// `(span name, calls, total nanoseconds)`.
pub type SpanTotal = (&'static str, u64, u64);

/// What a traced run produced.
pub struct Traced {
    /// The six workloads' traced results (reduced size; their end-to-end
    /// numbers carry tracing overhead and are not reported as such).
    pub workloads: Vec<WorkloadResult>,
    /// Ladder equality checks.
    pub checks: Vec<Check>,
    /// `(name, value)` for every entry of [`PER_LAYER`], in that order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Wall seconds of each ladder leg's push phase.
    pub legs: Vec<(&'static str, f64)>,
    /// Span files written.
    pub span_files: Vec<std::path::PathBuf>,
    /// Per traced workload, the time under each span name, longest first.
    pub span_totals: Vec<(&'static str, Vec<SpanTotal>)>,
}

impl Traced {
    /// Every traced workload and every ladder check held.
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(WorkloadResult::correct) && self.checks.iter().all(|c| c.ok)
    }
}

/// Size of each workload's traced run: a fifth of the measured size, but
/// half for `durable_recover`, whose crash must land behind a snapshot
/// (every 4 epochs) for recovery to show both of its parts.
fn traced_sizes(name: &str, sizes: Sizes) -> Sizes {
    let shrink = if name == "durable_recover" { 0.5 } else { 0.2 };
    Sizes {
        scale: sizes.scale * shrink,
        max_reps: 1,
        ..sizes
    }
}

/// One ladder leg: wall seconds of the push phase, of admission, of the
/// calls that crossed an epoch, and what the streams settled into.
struct Leg {
    push_s: f64,
    admit_s: f64,
    dispatch_s: f64,
    out: Outcome,
    /// Registry at the start of the push phase and at the end of the run.
    obs: Option<(ObsView, ObsView)>,
}

/// Which stack a ladder leg drives.
#[derive(Clone, Copy)]
enum Stack {
    Runtime,
    Service,
    Socket(Cores),
}

struct Ladder<'a> {
    fx: &'a Fixture,
    tmp: &'a TempRoot,
    shards: usize,
    conns: usize,
    rounds: usize,
    quiet: Tracer,
}

impl Ladder<'_> {
    fn segs(&self) -> u64 {
        (self.rounds * LADDER_V) as u64
    }

    fn spec(&self) -> RtSpec {
        RtSpec::memory(LADDER_V, Some(240.0), self.shards)
    }

    /// L0: the session push path alone.
    fn l0(&self) -> Res<f64> {
        let mut sessions: Vec<Sess<'_>> = (0..LADDER_V)
            .map(|v| {
                Sess::new(
                    self.fx,
                    self.fx.seed.wrapping_add(v as u64),
                    None,
                    &self.quiet,
                )
            })
            .collect();
        let t = Instant::now();
        for r in 0..self.rounds {
            for (v, s) in sessions.iter_mut().enumerate() {
                s.push(&self.fx.rec(v)[r])?;
            }
        }
        let wall = t.elapsed().as_secs_f64();
        for s in sessions {
            std::hint::black_box(s.finish());
        }
        Ok(wall)
    }

    /// L1–L5: the same rounds through `stack` under `spec`.
    fn leg(&self, stack: Stack, spec: &RtSpec) -> Res<Leg> {
        let fx = self.fx;
        let obs = spec.obs.clone();
        let before = |obs: &Option<ObsHandle>| obs.as_ref().map(ObsHandle::view);
        match stack {
            Stack::Runtime => {
                let mut rt = Rt::new(fx, spec, &self.quiet);
                let t = Instant::now();
                let ids = (0..LADDER_V)
                    .map(|v| rt.open(format!("cam-{v:04}")))
                    .collect::<Res<Vec<StreamId>>>()?;
                let admit_s = t.elapsed().as_secs_f64();
                let at_start = before(&obs);
                let mut dispatch_s = 0.0;
                let t = Instant::now();
                for r in 0..self.rounds {
                    let crossing = (r + 1) % LADDER_EPOCH == 0;
                    for (v, id) in ids.iter().enumerate() {
                        if crossing && v + 1 == LADDER_V {
                            let t = Instant::now();
                            rt.push(*id, &fx.rec(v)[r])?;
                            dispatch_s += t.elapsed().as_secs_f64();
                        } else {
                            rt.push(*id, &fx.rec(v)[r])?;
                        }
                    }
                }
                let push_s = t.elapsed().as_secs_f64();
                let out = rt.finish()?;
                Ok(Leg {
                    push_s,
                    admit_s,
                    dispatch_s,
                    out,
                    obs: at_start.zip(before(&obs)),
                })
            }
            Stack::Service => {
                let mut svc = Svc::new(fx, spec, &self.quiet);
                let t = Instant::now();
                let ids = (0..LADDER_V)
                    .map(|v| svc.open(format!("cam-{v:04}")))
                    .collect::<Res<Vec<StreamId>>>()?;
                let admit_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                for r in 0..self.rounds {
                    for (v, id) in ids.iter().enumerate() {
                        svc.push_batch(*id, std::slice::from_ref(&fx.rec(v)[r]))?;
                    }
                }
                let push_s = t.elapsed().as_secs_f64();
                Ok(Leg {
                    push_s,
                    admit_s,
                    dispatch_s: 0.0,
                    out: svc.drain()?,
                    obs: None,
                })
            }
            Stack::Socket(cores) => {
                let svc = Svc::new(fx, spec, &self.quiet);
                let sock = self.tmp.file("ladder.sock");
                let (served, (push_s, admit_s, at_start, at_end)) =
                    sut::with_server(svc, &sock, &self.quiet, cores, |ep| {
                        // The wire workloads' shape: stream `v` lives on
                        // connection `v mod conns`.
                        let mut clients = (0..self.conns)
                            .map(|_| sut::Client::connect(ep, &self.quiet))
                            .collect::<Res<Vec<_>>>()?;
                        let t = Instant::now();
                        let slots = (0..LADDER_V)
                            .map(|v| clients[v % self.conns].open_stream(&format!("cam-{v:04}")))
                            .collect::<Res<Vec<u64>>>()?;
                        let admit_s = t.elapsed().as_secs_f64();
                        let at_start = before(&obs);
                        let t = Instant::now();
                        for r in 0..self.rounds {
                            for (v, slot) in slots.iter().enumerate() {
                                clients[v % self.conns]
                                    .push_batch(*slot, std::slice::from_ref(&fx.rec(v)[r]))?;
                            }
                        }
                        let push_s = t.elapsed().as_secs_f64();
                        // The registry as the wire exposes it.
                        let at_end = match &obs {
                            Some(_) => Some(clients[0].get_metrics()?),
                            None => None,
                        };
                        Ok((push_s, admit_s, at_start, at_end))
                    })?;
                Ok(Leg {
                    push_s,
                    admit_s,
                    dispatch_s: 0.0,
                    out: served.outcome,
                    obs: at_start.zip(at_end),
                })
            }
        }
    }

    /// The fastest of three runs of a leg (push phase and admission each):
    /// the subtraction that follows is between best cases, not between one
    /// leg's luck and another's.
    fn best(&self, stack: Stack, spec: impl Fn() -> Res<RtSpec>) -> Res<Leg> {
        let mut best = self.leg(stack, &spec()?)?;
        for _ in 1..3 {
            let next = self.leg(stack, &spec()?)?;
            let admit_s = best.admit_s.min(next.admit_s);
            if next.push_s < best.push_s {
                best = next;
            }
            best.admit_s = admit_s;
        }
        Ok(best)
    }
}

/// Difference of a histogram between two registry views: `(count, ns)`.
fn hist_delta(views: &(ObsView, ObsView), name: &str) -> (u64, u64) {
    let (a, b) = (views.0.hist(name), views.1.hist(name));
    (b.0.saturating_sub(a.0), b.1.saturating_sub(a.1))
}

fn mean_ns(d: (u64, u64)) -> f64 {
    if d.0 == 0 {
        0.0
    } else {
        d.1 as f64 / d.0 as f64
    }
}

/// Nanoseconds per call of `f`, over `n` calls.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64
}

/// Run everything the per-layer metrics need.
pub fn run(
    fx: &Fixture,
    tmp: &TempRoot,
    shards: usize,
    conns: usize,
    sizes: Sizes,
    out_dir: &std::path::Path,
) -> Res<Traced> {
    let mut m: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());
    let mut set = |name: &'static str, value: f64| {
        m.push((name, if value.is_finite() { value } else { 0.0 }));
    };
    let mut checks = Vec::new();
    let mut span_files = Vec::new();

    // ---- (1) The six workloads, traced, at reduced size. ----
    let mut results: Vec<WorkloadResult> = Vec::new();
    let mut span_totals = Vec::new();
    let mut tracers: Vec<Tracer> = Vec::new();
    let mut views: Vec<ObsView> = Vec::new();
    for name in workloads::names() {
        let tr = Tracer::on();
        let obs = ObsHandle::new();
        let env = Env {
            fx,
            tr: &tr,
            tmp,
            shards,
            conns,
            sizes: traced_sizes(name, sizes),
            obs: Some(obs.clone()),
        };
        let r = workloads::run(name, &env);
        let path = out_dir.join(format!("trace-{name}.jsonl"));
        tr.write_jsonl(&path, name).map_err(|e| e.to_string())?;
        span_files.push(path);
        let mut totals: Vec<_> = tr
            .names()
            .into_iter()
            .filter(|(n, _)| !n.contains('/'))
            .map(|(n, s)| (n, s.count, s.sum_ns))
            .collect();
        totals.sort_by_key(|t| std::cmp::Reverse(t.2));
        span_totals.push((name, totals));
        results.push(r);
        views.push(obs.view());
        tracers.push(tr);
    }
    let by = |name: &str| {
        let i = workloads::names()
            .iter()
            .position(|n| *n == name)
            .unwrap_or(0);
        (&results[i], &tracers[i], &views[i])
    };
    let (fleet, fleet_tr, fleet_obs) = by("fleet_steady");
    let (short, short_tr, _) = by("short_epoch");
    let (wire, _, _) = by("wire_camera");
    let (churn, churn_tr, _) = by("churn_wire");
    let (durable, _, _) = by("durable_recover");
    let (redundant, _, redundant_obs) = by("redundant_fleet");

    // ---- (2) The ladder. ----
    let ladder = Ladder {
        fx,
        tmp,
        shards,
        conns,
        // Whole epochs, so the last push settles everything pushed.
        rounds: (((2_400.0 * sizes.scale) as usize) / LADDER_EPOCH).max(1) * LADDER_EPOCH,
        quiet: Tracer::off(),
    };
    let io = |e: std::io::Error| e.to_string();
    let segs = ladder.segs();
    let l0 = ladder.l0()?.min(ladder.l0()?).min(ladder.l0()?);
    let l1 = ladder.best(Stack::Runtime, || Ok(ladder.spec()))?;
    let l2_dir = tmp.file("ladder-l2");
    let l2 = ladder.best(Stack::Runtime, || {
        Ok(ladder.spec().durable(tmp.dir("ladder-l2").map_err(io)?, 0))
    })?;
    let l3 = ladder.best(Stack::Runtime, || {
        Ok(ladder.spec().durable(tmp.dir("ladder-l3").map_err(io)?, 1))
    })?;
    let l4 = ladder.best(Stack::Service, || Ok(ladder.spec()))?;
    let l5 = ladder.leg(Stack::Socket(Cores::One), &ladder.spec())?;
    let l5_all = ladder.leg(Stack::Socket(Cores::All), &ladder.spec())?;
    // A fresh registry per run, so counters read back are that run's own.
    let l1o = ladder.best(Stack::Runtime, || Ok(ladder.spec().obs(&ObsHandle::new())))?;
    let l3o = ladder.best(Stack::Runtime, || {
        Ok(ladder
            .spec()
            .durable(tmp.dir("ladder-l3o").map_err(io)?, 1)
            .obs(&ObsHandle::new()))
    })?;
    let l5o = ladder.leg(
        Stack::Socket(Cores::One),
        &ladder.spec().obs(&ObsHandle::new()),
    )?;
    for (name, leg) in [
        ("L2 journal", &l2),
        ("L3 journal+snapshot", &l3),
        ("L4 service", &l4),
        ("L5 socket", &l5),
        ("L5 socket, all cores", &l5_all),
        ("L1 +registry", &l1o),
        ("L3 +registry", &l3o),
        ("L5 +registry", &l5o),
    ] {
        checks.push(workloads::bitwise(
            &format!("ladder {name} == L1"),
            &l1.out,
            &leg.out,
        ));
    }

    // Full replay of L2's journal-only directory.
    let replay_dir = tmp.file("ladder-replay");
    copy_dir(&l2_dir, &replay_dir).map_err(io)?;
    let wal_bytes = dir_bytes(&l2_dir, ".wal");
    let t = Instant::now();
    let (replayed, rec) = Rt::recover(fx, &ladder.spec().durable(replay_dir, 0), &ladder.quiet)?;
    let replay_s = t.elapsed().as_secs_f64();
    drop(replayed);

    // ---- (3) Probes of single public functions. ----
    let one = std::slice::from_ref(&fx.recs[0][0]);
    let thirty = &fx.recs[0][..30];
    let body1 = sut::encode_push(3, 0, one);
    let body30 = sut::encode_push(3, 0, thirty);
    let enc1 = ns_per_call(20_000, |i| {
        std::hint::black_box(sut::encode_push(3, i as u64, one));
    });
    let enc30 = ns_per_call(4_000, |i| {
        std::hint::black_box(sut::encode_push(3, i as u64, thirty));
    });
    let mut decoded = 0;
    let dec1 = ns_per_call(20_000, |_| decoded += sut::decode_push(&body1).unwrap_or(0));
    let dec30 = ns_per_call(4_000, |_| decoded += sut::decode_push(&body30).unwrap_or(0));
    let reply = ns_per_call(20_000, |i| {
        decoded += sut::reply_round_trip(3, i as u64, i as u64 + 1).unwrap_or(0);
    });
    if decoded == 0 {
        return Err("wire codec probe decoded nothing".into());
    }

    // The reorder gate as a second use of the session layer.
    let arrivals: Vec<Vec<usize>> = (0..sut::RECORDINGS)
        .map(|k| {
            sut::hostile_arrivals(&fx.recs[k][..ladder.rounds], fx.seed.wrapping_add(k as u64))
        })
        .collect();
    let mut gated: Vec<Sess<'_>> = (0..LADDER_V)
        .map(|v| Sess::new(fx, fx.seed.wrapping_add(v as u64), Some(8), &ladder.quiet))
        .collect();
    let (mut arrived, mut late) = (0u64, 0u64);
    let t = Instant::now();
    for i in 0..ladder.rounds {
        for (v, s) in gated.iter_mut().enumerate() {
            let order = &arrivals[v % sut::RECORDINGS];
            let Some(&idx) = order.get(i) else { continue };
            arrived += 1;
            if s.push_arrival(&fx.rec(v)[idx])? == Arrival::Late {
                late += 1;
            }
        }
    }
    let arrival_ns = t.elapsed().as_secs_f64() * 1e9 / arrived.max(1) as f64;
    // Segments the gate still holds are dropped with the sessions: this
    // probe times arrivals and checks no outcome.
    drop(gated);

    let mut switcher = Switcher::new(fx);
    let cats = switcher.categories();
    let mut picked = 0;
    let decide_ns = ns_per_call(200_000, |i| {
        picked += switcher.decide(i % cats, (i % 7) as f64 * 1e6, (i % 5) as f64);
    });
    std::hint::black_box(picked);

    // The joint LP at V = 64, on forecasts captured from running sessions
    // at two consecutive epoch boundaries.
    let lp_spec = RtSpec::memory(64, Some(240.0), shards);
    let mut sessions: Vec<Sess<'_>> = (0..64)
        .map(|v| Sess::new(fx, fx.seed.wrapping_add(v as u64), None, &ladder.quiet))
        .collect();
    let mut forecasts = Vec::new();
    for epoch in 0..2 {
        for r in epoch * LADDER_EPOCH..(epoch + 1) * LADDER_EPOCH {
            for (v, s) in sessions.iter_mut().enumerate() {
                s.push(&fx.rec(v)[r])?;
            }
        }
        forecasts.push(
            sessions
                .iter()
                .map(Sess::forecast)
                .collect::<Res<Vec<Vec<f64>>>>()?,
        );
    }
    let mut lp = JointLp::new(fx, &lp_spec);
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    lp.solve_warm(&forecasts[0])?;
    for i in 0..5 {
        let t = Instant::now();
        lp.solve_cold(&forecasts[i % 2])?;
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        lp.solve_warm(&forecasts[(i + 1) % 2])?;
        warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    // Dedup on and off over the same fleet, both untraced.
    let quiet_env = Env {
        fx,
        tr: &ladder.quiet,
        tmp,
        shards,
        conns,
        sizes: traced_sizes("redundant_fleet", sizes),
        obs: None,
    };
    let (dedup_on_s, dedup_off_s) = workloads::redundant_walls(&quiet_env)?;

    // ---- Assemble, in PER_LAYER order. ----
    let churn_connect = churn_tr.summary("net.connect");
    set("net.connect_us", churn_connect.mean_ns() / 1e3);
    set("net.rtt_us_empty", wire.layer("rtt_us_empty"));
    set("net.push_rtt_us_1seg", wire.layer("ack_us_p50"));
    set("net.push_rtt_us_1seg_p99", wire.layer("ack_us_tail"));
    set("net.push_rtt_us_30seg", churn.layer("push_us_30seg"));
    set(
        "net.overhead_us_per_msg",
        ladder_step_ns(l5.push_s, l4.push_s, segs) / 1e3,
    );
    set(
        "net.overhead_us_per_msg_all_cores",
        ladder_step_ns(l5_all.push_s, l4.push_s, segs) / 1e3,
    );
    set(
        "net.server_cpu_us_per_msg",
        wire.layer("server_cpu_us_per_msg"),
    );
    set(
        "net.retries",
        wire.layer("retries") + churn.layer("retries"),
    );
    set("net.refed_segs", wire.layer("refed_segs"));
    set("net.gen_late_share", wire.layer("gen_late_share"));

    set("proto.encode_push_ns_1seg", enc1);
    set("proto.encode_push_ns_per_seg_30", enc30 / 30.0);
    set("proto.decode_push_ns_1seg", dec1);
    set("proto.decode_push_ns_per_seg_30", dec30 / 30.0);
    set("proto.reply_codec_ns", reply);
    set(
        "proto.frame_bytes_1seg",
        (body1.len() + sut::FRAME_HEADER_BYTES) as f64,
    );

    set(
        "service.push_ns_per_seg",
        ladder_step_ns(l4.push_s, l1.push_s, segs),
    );
    set(
        "service.open_us",
        (l4.admit_s - l1.admit_s) * 1e6 / LADDER_V as f64,
    );

    let session_push_ns = l0 * 1e9 / segs as f64;
    let dispatch = short_tr.summary("runtime.push.dispatch");
    let dispatch_ms = dispatch.mean_ns() / 1e6;
    // Short calls only: the first dispatch after admission crosses no
    // barrier, moves no epoch counter, and is neither enqueue nor crossing.
    set(
        "runtime.enqueue_ns",
        short_tr.summary("runtime.push.enqueue").short_mean_ns(),
    );
    set("runtime.dispatch_ms_v64", dispatch_ms);
    set(
        "runtime.overhead_ns_per_seg",
        ladder_step_ns(l1.push_s, l0, segs),
    );
    set(
        "runtime.close_us",
        short_tr.summary("runtime.close_stream").mean_ns() / 1e3,
    );
    // `fleet_steady` finishes with a partial epoch queued, so its finish
    // does the work; `short_epoch` closes every stream first.
    set(
        "runtime.finish_ms",
        fleet_tr.summary("runtime.finish").mean_ns() / 1e6,
    );
    set("runtime.epochs", short.layer("epochs"));
    let l1_views = l1o
        .obs
        .as_ref()
        .ok_or("L1 registry leg returned no views")?;
    set(
        "runtime.joint_plans",
        (l1_views.1.counter("lp_solves_cold") + l1_views.1.counter("lp_solves_warm")) as f64,
    );

    set(
        "barrier.ms_v64",
        dispatch_ms - (LADDER_EPOCH as f64 * short.layer("v") * session_push_ns) / 1e6,
    );
    let stage = |name: &str| hist_delta(l1_views, name);
    set(
        "obs.barrier_settle_ms",
        mean_ns(stage("barrier_settle")) / 1e6,
    );
    set(
        "obs.barrier_lp_warm_ms",
        mean_ns(stage("barrier_lp_solve_warm")) / 1e6,
    );
    set(
        "obs.barrier_lp_cold_ms",
        mean_ns(l1_views.1.hist("barrier_lp_solve_cold")) / 1e6,
    );
    set(
        "obs.barrier_resplit_ms",
        mean_ns(stage("barrier_wallet_resplit")) / 1e6,
    );
    set(
        "obs.barrier_broadcast_ms",
        mean_ns(stage("barrier_broadcast")) / 1e6,
    );
    set(
        "obs.batch_dispatch_ms",
        mean_ns(stage("batch_dispatch")) / 1e6,
    );
    set(
        "obs.mailbox_drain_us",
        mean_ns(stage("mailbox_drain")) / 1e3,
    );
    let (warm, cold) = (
        stage("barrier_lp_solve_warm").0,
        stage("barrier_lp_solve_cold").0,
    );
    set(
        "planner.warm_ratio",
        warm as f64 / (warm + cold).max(1) as f64,
    );
    let attributed: u64 = [
        "barrier_settle",
        "barrier_lp_solve_cold",
        "barrier_lp_solve_warm",
        "barrier_wallet_resplit",
        "barrier_broadcast",
        "batch_dispatch",
    ]
    .iter()
    .map(|n| stage(n).1)
    .sum();
    set(
        "barrier.unattributed_share",
        1.0 - attributed as f64 / 1e9 / l1o.dispatch_s.max(1e-9),
    );

    for (metric, input) in [
        ("admission.open_ms_v8", "open_ms_v8"),
        ("admission.open_ms_v32", "open_ms_v32"),
        ("admission.open_ms_v64", "open_ms_v64"),
        ("admission.open_ms_v128", "open_ms_v128"),
    ] {
        set(metric, fleet.layer(input));
    }
    let (v64, v128) = (fleet.layer("open_ms_v64"), fleet.layer("open_ms_v128"));
    set(
        "admission.growth_exp",
        if v64 > 0.0 && v128 > 0.0 {
            (v128 / v64).log2()
        } else {
            0.0
        },
    );
    set(
        "obs.lp_solves_cold",
        fleet_obs.counter("lp_solves_cold") as f64,
    );

    set("session.push_ns", session_push_ns);
    set("session.push_arrival_ns", arrival_ns);
    set("session.late_share", late as f64 / arrived.max(1) as f64);
    set("switcher.decide_ns", decide_ns);
    set("planner.joint_lp_cold_ms_v64", median(&cold_ms));
    set("planner.joint_lp_warm_ms_v64", median(&warm_ms));

    set(
        "wal.append_ns_per_seg",
        ladder_step_ns(l2.push_s, l1.push_s, segs),
    );
    set("wal.bytes_per_seg", wal_bytes as f64 / segs as f64);
    set("wal.snapshot_ms", durable.layer("snapshot_s") * 1e3);
    set("wal.snapshot_bytes", durable.layer("snapshot_bytes"));
    set(
        "wal.snapshot_share",
        (l3.push_s - l2.push_s) / l3.push_s.max(1e-9),
    );
    let l3_views = l3o
        .obs
        .as_ref()
        .ok_or("L3 registry leg returned no views")?;
    set(
        "obs.wal_append_ns",
        mean_ns(hist_delta(l3_views, "wal_append")),
    );
    set(
        "obs.wal_fsync_ms",
        mean_ns(hist_delta(l3_views, "wal_fsync")) / 1e6,
    );
    set("obs.wal_fsyncs", hist_delta(l3_views, "wal_fsync").0 as f64);

    set(
        "recovery.replay_segs_per_s",
        rec.tail_segs as f64 / replay_s.max(1e-9),
    );
    set(
        "recovery.snapshot_load_ms",
        durable.layer("snapshot_reload_s") * 1e3,
    );
    set("recovery.tail_segs", durable.layer("tail_segs"));
    set("recovery.discarded_bytes", durable.layer("discarded_bytes"));

    let lookups = redundant.layer("dedup_lookups");
    set(
        "dedupe.hit_rate",
        redundant.layer("dedup_hits") / lookups.max(1.0),
    );
    set("dedupe.lookups", lookups);
    set(
        "dedupe.ns_per_lookup",
        (dedup_on_s - dedup_off_s) * 1e9 / lookups.max(1.0),
    );
    set("dedupe.cache_entries", redundant.layer("dedup_entries"));
    set(
        "dedupe.work_saved_core_s",
        redundant.layer("dedup_saved_core_s"),
    );
    set(
        "obs.dedup_lookup_ns",
        mean_ns(redundant_obs.hist("dedup_lookup")),
    );

    set(
        "obs.overhead_pct",
        100.0 * (l1o.push_s - l1.push_s) / l1.push_s.max(1e-9),
    );
    set("offline.fit_s", fx.fit_s);

    // The wire's registry must agree with what it was asked over.
    if let Some((_, wire_view)) = &l5o.obs {
        checks.push(Check {
            name: "registry over the wire counts the ladder's pushes".into(),
            ok: wire_view.counter("session_pushes") >= segs,
            detail: format!(
                "{} session pushes reported for {segs} sent",
                wire_view.counter("session_pushes")
            ),
        });
    }
    checks.push(Check {
        name: "journal replay restores every segment".into(),
        ok: rec.tail_segs == segs && !rec.from_snapshot,
        detail: format!(
            "{} of {segs} segments replayed from the journal alone",
            rec.tail_segs
        ),
    });

    let legs = vec![
        ("L0 session", l0),
        ("L1 runtime", l1.push_s),
        ("L2 +journal", l2.push_s),
        ("L3 +snapshot/epoch", l3.push_s),
        ("L4 service", l4.push_s),
        ("L5 socket", l5.push_s),
        ("L5 socket, all cores", l5_all.push_s),
        ("L1 +registry", l1o.push_s),
        ("L3 +registry", l3o.push_s),
        ("L5 +registry", l5o.push_s),
    ];
    // Report in the table's order, by name: a metric assembled out of
    // place, twice or not at all is an error, not a mislabelled number.
    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            let mut found = m.iter().filter(|(n, _)| *n == d.name);
            match (found.next(), found.next()) {
                (Some(&one), None) => Ok(one),
                _ => Err(format!("per-layer metric {} was not produced once", d.name)),
            }
        })
        .collect::<Res<Vec<_>>>()?;
    if m.len() != PER_LAYER.len() {
        return Err("a per-layer metric outside the table was produced".into());
    }
    Ok(Traced {
        workloads: results,
        checks,
        metrics,
        legs,
        span_files,
        span_totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        for (i, d) in PER_LAYER.iter().enumerate() {
            assert!(
                PER_LAYER[..i].iter().all(|o| o.name != d.name),
                "{}",
                d.name
            );
            assert!(d.name.len() <= 64 && d.name.contains('.'));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
    }

    #[test]
    fn traced_runs_are_smaller_but_keep_the_fleet() {
        let sizes = Sizes::measured(0.5);
        assert_eq!(traced_sizes("short_epoch", sizes).scale, 0.1);
        assert_eq!(traced_sizes("durable_recover", sizes).scale, 0.25);
        assert_eq!(traced_sizes("fleet_steady", sizes).v_cap, usize::MAX);
        assert_eq!(traced_sizes("fleet_steady", sizes).max_reps, 1);
    }
}
