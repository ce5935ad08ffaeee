//! The six workloads. Each drives the system through [`crate::sut`] from
//! one thread, measures over whole planning epochs, settles, and checks
//! what came out: conservation on every run and cross-engine bitwise
//! equality on a truncated copy of the same schedule.
//!
//! A workload's schedule is split into three repetitions. Every repetition
//! builds its own engine and feeds it the same seeded input, so window
//! `i` and open `v` are the same work in each of them. Interference on a
//! shared box only ever slows a window down, so each window and each open
//! counts as the fastest of its repetitions; rates are then the median
//! over windows, admission time the sum over opens. The deterministic
//! metrics must agree across repetitions bit for bit.

use std::time::{Duration, Instant};

use crate::cpu::{process_cpu_secs, thread_cpu_secs};
use crate::procfs::RssMeter;
use crate::report::{metric_def, Better, Check, Metric, WorkloadResult};
use crate::stats::{iqr_share, mean, median, tail, EpochWindows, Pacer};
use crate::sut::{
    self, Client, Cores, Endpoint, Fixture, ObsHandle, Outcome, Res, Rt, RtSpec, Segment, StreamId,
    Svc,
};
use crate::tmp::{copy_dir, dir_bytes, TempRoot};
use crate::trace::Tracer;

/// Names of the six workloads, in run order.
pub fn names() -> [&'static str; 6] {
    WORKLOADS.each_ref().map(|w| w.name)
}

/// Why a workload exists (also its `why` in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why)
}

/// Rate of the open-loop leg, messages per second. Fixed: it is what the
/// workload is about, never scaled.
pub const PACED_MSGS_PER_S: f64 = 4_000.0;
/// An acknowledgement older than this missed the keep-up limit.
pub const KEEP_UP_LIMIT_MS: f64 = 100.0;
/// Streams of the truncated copies the cross-engine checks run.
const CHECK_V: usize = 16;
/// Metrics that are pure functions of the seed and the size.
const EXACT: [&str; 3] = ["quality_mean", "cloud_usd_per_kseg", "work_core_s_per_seg"];

/// How large the workloads run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Factor on the issue's default round counts (1.0 = defaults). Rounds
    /// only — never fleet size, epoch length, message size or paced rate.
    pub scale: f64,
    /// Cap on fleet size. `usize::MAX` for measurements; `check` lowers it
    /// because admission cost does not shrink with rounds.
    pub v_cap: usize,
    /// Cap on repetitions (1 for `check` and for traced runs).
    pub max_reps: usize,
}

impl Sizes {
    /// Measurement sizes at `scale`.
    pub fn measured(scale: f64) -> Self {
        Self {
            scale,
            v_cap: usize::MAX,
            max_reps: usize::MAX,
        }
    }

    fn rounds(&self, full: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(1)
    }

    fn v(&self, full: usize) -> usize {
        full.min(self.v_cap)
    }
}

/// What every workload needs.
pub struct Env<'a> {
    /// Fitted model and seeded inputs.
    pub fx: &'a Fixture,
    /// Span recorder (off for end-to-end runs).
    pub tr: &'a Tracer,
    /// Per-process root for journals and sockets.
    pub tmp: &'a TempRoot,
    /// Worker shards, explicit everywhere.
    pub shards: usize,
    /// Concurrently open connections of the wire workloads (at most the
    /// core count, and never more than the two a camera gateway keeps).
    pub conns: usize,
    /// Run sizes.
    pub sizes: Sizes,
    /// Registry attached to the main runtime (traced runs only).
    pub obs: Option<ObsHandle>,
}

impl<'a> Env<'a> {
    fn spec(&self, spec: RtSpec) -> RtSpec {
        match &self.obs {
            Some(o) => spec.obs(o),
            None => spec,
        }
    }

    /// The same environment with spans and registry off: reference runs of
    /// the cross-engine checks are not part of what is traced.
    fn quiet(&self, tr: &'a Tracer) -> Env<'a> {
        Env {
            fx: self.fx,
            tr,
            tmp: self.tmp,
            shards: self.shards,
            conns: self.conns,
            sizes: self.sizes,
            obs: None,
        }
    }
}

/// Repetitions a workload's schedule is split into.
const REPS: usize = 3;

/// One workload: how one repetition is measured, and the cross-engine
/// check of a truncated copy.
struct Workload {
    name: &'static str,
    why: &'static str,
    phase: &'static str,
    measure: fn(&Env<'_>, &mut Run, usize) -> Res<WorkloadResult>,
    check: fn(&Env<'_>) -> Res<Vec<Check>>,
}

const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "fleet_steady",
        why: "128 long-lived streams at the model's own 6 h planning cadence: admission at growing fleet size, then a push path that does all the work and a barrier that does almost none",
        phase: "workload/fleet_steady",
        measure: fleet_steady,
        check: |_| Ok(Vec::new()),
    },
    Workload {
        name: "short_epoch",
        why: "64 streams at 120-segment epochs: the epoch barrier (settle, joint LP, wallet re-split) is most of the wall clock and the push path the rest",
        phase: "workload/short_epoch",
        measure: short_epoch,
        check: short_epoch_check,
    },
    Workload {
        name: "wire_camera",
        why: "32 cameras over a Unix socket, one segment per message, journaled: per-message wire and service cost dominates; closed loop, then open loop at 4000 msgs/s",
        phase: "workload/wire_camera",
        measure: wire_camera,
        check: wire_camera_check,
    },
    Workload {
        name: "churn_wire",
        why: "connection and stream churn at constant fleet size: every open flushes, crosses a barrier and re-solves the joint LP cold; 30-segment messages",
        phase: "workload/churn_wire",
        measure: churn_wire,
        check: churn_wire_check,
    },
    Workload {
        name: "durable_recover",
        why: "journal and snapshots beside recovery: append and snapshot cost while serving, snapshot load and journal-tail replay after a crash",
        phase: "workload/durable_recover",
        measure: durable_recover,
        check: durable_recover_check,
    },
    Workload {
        name: "redundant_fleet",
        why: "8 groups of 8 co-located cameras with exact dedup: 7 of 8 lookups can hit what the group leader published an epoch earlier",
        phase: "workload/redundant_fleet",
        measure: redundant_fleet,
        check: redundant_fleet_check,
    },
];

/// Run one workload by name: its repetitions, then its cross-engine check.
pub fn run(name: &str, env: &Env<'_>) -> WorkloadResult {
    let t0 = Instant::now();
    let Some(w) = WORKLOADS.iter().find(|w| w.name == name) else {
        return WorkloadResult {
            error: Some(format!("unknown workload `{name}`")),
            failed: 1,
            attempted: 1,
            ..WorkloadResult::default()
        };
    };
    let mut run = Run::start();
    let reps = REPS.min(env.sizes.max_reps).max(1);
    let phase = env.tr.phase(w.phase);
    let mut measured = Vec::new();
    let mut error = None;
    for _ in 0..reps {
        match (w.measure)(env, &mut run, reps) {
            Ok(r) => measured.push(r),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    let mut r = merge(measured);
    r.metrics.push(run.rss_metric());
    if error.is_none() {
        let check = env.tr.phase("workload/check");
        match (w.check)(env) {
            Ok(checks) => r.checks.extend(checks),
            Err(e) => error = Some(format!("cross-engine check could not run: {e}")),
        }
        env.tr.end(check);
    }
    env.tr.end(phase);
    if error.is_some() {
        run.failed = run.failed.max(1);
    }
    r.error = error;
    r.name = w.name;
    r.attempted = run.attempted.max(1);
    r.failed = run.failed;
    r.metrics.push(Metric {
        name: "failed_share",
        value: r.failed as f64 / r.attempted as f64,
        unit: "ratio",
        spread: 0.0,
        note: format!("{} of {} operations", r.failed, r.attempted),
    });
    r.wall_s = t0.elapsed().as_secs_f64();
    r
}

/// Element-wise best of the repetitions' vectors (they replay one
/// schedule, so element `i` is the same work in each).
fn best_of(vectors: &[&[f64]], higher: bool) -> Vec<f64> {
    let n = vectors.iter().map(|v| v.len()).min().unwrap_or(0);
    let pick = if higher { f64::max } else { f64::min };
    (0..n)
        .map(|i| vectors.iter().map(|v| v[i]).reduce(pick).unwrap_or(0.0))
        .collect()
}

/// Fold repetitions into one result. Interference only ever makes a
/// window or an open slower, so each counts as the fastest of its
/// repetitions before the median (or sum) over windows (or opens) is
/// taken; scalar timings take the best repetition; what must repeat
/// exactly is checked to.
fn merge(mut reps: Vec<WorkloadResult>) -> WorkloadResult {
    if reps.is_empty() {
        return WorkloadResult::default();
    }
    let n = reps.len();
    let mut out = reps.remove(0);
    if n == 1 {
        return out;
    }
    let vectors = |of: fn(&WorkloadResult) -> &[f64]| -> Vec<&[f64]> {
        std::iter::once(&out).chain(&reps).map(of).collect()
    };
    let rates = best_of(&vectors(|r| &r.window_rates), true);
    let opens = best_of(&vectors(|r| &r.open_ms), false);
    let mut drift = Vec::new();
    let mut metrics = std::mem::take(&mut out.metrics);
    for m in &mut metrics {
        let mut values = vec![m.value];
        values.extend(
            reps.iter()
                .filter_map(|r| r.metric(m.name))
                .map(|o| o.value),
        );
        if EXACT.contains(&m.name) {
            if values.iter().any(|v| v.to_bits() != m.value.to_bits()) {
                drift.push(m.name);
            }
            continue;
        }
        m.spread = iqr_share(&values);
        (m.value, m.note) = match m.name {
            "ingest_segs_per_s" => (
                median(&rates),
                format!(
                    "median of {} epoch-aligned windows, each the fastest of {n} repetitions",
                    rates.len()
                ),
            ),
            "admit_fleet_s" => (
                opens.iter().sum::<f64>() / 1e3,
                format!("{} opens, each the fastest of {n} repetitions", opens.len()),
            ),
            "open_ms_p50" => (
                median(&opens),
                format!("{} opens, each the fastest of {n} repetitions", opens.len()),
            ),
            "open_ms_p99" => {
                let t = tail(&opens, 99.0);
                (
                    t.value,
                    format!(
                        "p{} of {} opens (ten beyond it), each the fastest of {n} repetitions",
                        t.pct, t.n
                    ),
                )
            }
            _ => {
                let higher = metric_def(m.name).is_some_and(|d| d.better == Better::Higher);
                let pick = if higher { f64::max } else { f64::min };
                (
                    values.iter().copied().reduce(pick).unwrap_or(m.value),
                    format!("best of {n} repetitions; each: {}", m.note),
                )
            }
        };
    }
    out.metrics = metrics;
    out.window_rates = rates;
    out.open_ms = opens;
    if reps.iter().any(|r| r.fingerprint != out.fingerprint) {
        drift.push("fingerprint");
    }
    for (i, r) in reps.iter().enumerate() {
        for c in r.checks.iter().filter(|c| !c.ok) {
            out.checks.push(Check {
                name: format!("{} (repetition {})", c.name, i + 2),
                ..c.clone()
            });
        }
    }
    out.checks.push(Check {
        name: "repetitions agree exactly".into(),
        ok: drift.is_empty(),
        detail: if drift.is_empty() {
            format!("{n} repetitions: outcome fingerprint, quality, cost and work identical")
        } else {
            format!("differ across repetitions: {}", drift.join(", "))
        },
    });
    out.facts.push(("repetitions", n.to_string()));
    out
}

/// One workload invocation: operations attempted and failed across all of
/// its repetitions, and the resident-set meter. A failed operation also
/// ends the workload (its `Err` propagates), so `failed` is 0 or 1 in
/// practice; it exists so a refused open or push is counted, not just
/// reported.
pub struct Run {
    attempted: u64,
    failed: u64,
    rss: RssMeter,
}

impl Run {
    fn start() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            rss: RssMeter::start(),
        }
    }

    fn one<T>(&mut self, r: Res<T>) -> Res<T> {
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
        r
    }

    fn rss_metric(&mut self) -> Metric {
        let (mb, source) = self.rss.peak_mb();
        Metric {
            name: "peak_rss_mb",
            value: mb,
            unit: "MB",
            spread: 0.0,
            note: format!("{} over all repetitions", source.name()),
        }
    }
}

// ---------------------------------------------------------------------
// Shared measurement pieces
// ---------------------------------------------------------------------

/// The steady phase of a repetition: epoch-aligned windows and the
/// process CPU spent across them.
struct Steady {
    windows: EpochWindows,
    cpu_start: f64,
    cpu_end: f64,
    done: u64,
}

impl Steady {
    fn start() -> Self {
        let cpu = process_cpu_secs();
        Self {
            windows: EpochWindows::start(0),
            cpu_start: cpu,
            cpu_end: cpu,
            done: 0,
        }
    }

    /// A planning epoch just completed with `n` more segments settled:
    /// close the window.
    fn mark(&mut self, n: u64, run: &mut Run) {
        self.done += n;
        self.windows.mark(self.done);
        self.cpu_end = process_cpu_secs();
        run.rss.sample();
    }

    /// The run was too short to complete an epoch: the whole phase, up to
    /// the call that settled it, is the one window.
    fn close_if_empty(&mut self, pending: u64, run: &mut Run) {
        if self.windows.is_empty() {
            self.mark(pending, run);
        }
    }

    /// Record the windows' rates and the two metrics they give.
    fn report(&self, unit_name: &str, r: &mut WorkloadResult) {
        let rates = self.windows.rates();
        let segs = self.windows.segments().max(1);
        r.metrics.extend([
            Metric {
                name: "ingest_segs_per_s",
                value: median(&rates),
                unit: "segs/s",
                spread: iqr_share(&rates),
                note: format!(
                    "median of {} epoch-aligned windows, {segs} {unit_name}",
                    rates.len()
                ),
            },
            Metric {
                name: "cpu_us_per_seg",
                value: (self.cpu_end - self.cpu_start) * 1e6 / segs as f64,
                unit: "us",
                spread: 0.0,
                note: "whole process incl. the driver thread, same windows".into(),
            },
        ]);
        r.window_rates = rates;
    }
}

/// Admission latencies of a repetition, in milliseconds.
struct Opens {
    ms: Vec<f64>,
}

impl Opens {
    fn new() -> Self {
        Self { ms: Vec::new() }
    }

    fn time<T>(&mut self, f: impl FnOnce() -> Res<T>) -> Res<T> {
        let t = Instant::now();
        let r = f();
        self.ms.push(ms(t.elapsed()));
        r
    }

    /// Record every open's latency and the three metrics they give.
    fn report(self, what: &str, r: &mut WorkloadResult) {
        let t = tail(&self.ms, 99.0);
        let metric = |name, value, unit, note| Metric {
            name,
            value,
            unit,
            spread: 0.0,
            note,
        };
        r.metrics.extend([
            metric(
                "admit_fleet_s",
                self.ms.iter().sum::<f64>() / 1e3,
                "s",
                format!("{} {what}", self.ms.len()),
            ),
            metric(
                "open_ms_p50",
                median(&self.ms),
                "ms",
                format!("{} samples", self.ms.len()),
            ),
            metric(
                "open_ms_p99",
                t.value,
                "ms",
                format!("p{} of {} samples (ten beyond it)", t.pct, t.n),
            ),
        ]);
        r.open_ms = self.ms;
    }
}

/// The paper's objective and cost, from the settled outcome. Deterministic
/// for a seed and a size.
fn outcome_metrics(out: &Outcome) -> [Metric; 3] {
    let segs = out.streams.iter().map(|s| s.segments).sum::<u64>().max(1) as f64;
    let n = out.streams.len().max(1) as f64;
    let quality = out.streams.iter().map(|s| s.mean_quality).sum::<f64>() / n;
    let work: f64 = out
        .streams
        .iter()
        .map(|s| s.work_core_s - s.work_saved_core_s)
        .sum();
    let exact = |name, value, unit, note: &str| Metric {
        name,
        value,
        unit,
        spread: 0.0,
        note: note.into(),
    };
    [
        exact(
            "quality_mean",
            quality,
            "ratio",
            "mean of per-stream mean_quality",
        ),
        exact(
            "cloud_usd_per_kseg",
            out.cloud_usd / (segs / 1e3),
            "usd",
            "shared-wallet dollars per 1000 settled segments",
        ),
        exact(
            "work_core_s_per_seg",
            work / segs,
            "core-s",
            "simulated work executed (charged - dedup-saved)",
        ),
    ]
}

/// FNV-1a over `(segments, quality bits, cloud bits)` per stream.
fn fingerprint(out: &Outcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in &out.streams {
        for w in [s.segments, s.mean_quality.to_bits(), s.cloud_usd.to_bits()] {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Segments settled equal pushes acknowledged, per stream, and Eq. 1 held.
fn conservation(out: &Outcome, expect: u64, streams: usize) -> Check {
    let off = out.streams.iter().filter(|s| s.segments != expect).count();
    let overflows: u64 = out.streams.iter().map(|s| s.overflows).sum();
    let settled: u64 = out.streams.iter().map(|s| s.segments).sum();
    Check {
        name: "conservation".into(),
        ok: off == 0 && overflows == 0 && out.streams.len() == streams,
        detail: format!(
            "{} streams settled {settled} segments; {off} streams off their acknowledged count; {overflows} overflows",
            out.streams.len(),
        ),
    }
}

/// Two engines, one schedule: `segments`, `mean_quality` and `cloud_usd`
/// must agree bit for bit on every stream.
pub fn bitwise(name: &str, a: &Outcome, b: &Outcome) -> Check {
    let diverged = a.streams.iter().zip(&b.streams).position(|(x, y)| {
        x.segments != y.segments
            || x.mean_quality.to_bits() != y.mean_quality.to_bits()
            || x.cloud_usd.to_bits() != y.cloud_usd.to_bits()
    });
    let same_len = a.streams.len() == b.streams.len();
    Check {
        name: name.into(),
        ok: same_len && diverged.is_none(),
        detail: match diverged {
            _ if !same_len => format!("{} vs {} streams", a.streams.len(), b.streams.len()),
            Some(v) => format!("stream {v} diverged"),
            None => format!(
                "{} streams bitwise equal (fingerprint {:016x})",
                a.streams.len(),
                fingerprint(a)
            ),
        },
    }
}

fn clean_serve(served: &sut::Served) -> Check {
    Check {
        name: "clean serve".into(),
        ok: served.malformed == 0 && served.autoclosed == 0,
        detail: format!(
            "{} connections, {} malformed, {} streams auto-closed; client and server {}",
            served.connections,
            served.malformed,
            served.autoclosed,
            if served.one_core {
                "confined to one core"
            } else {
                "NOT confined to one core (the kernel refused): wire timings depend on thread placement"
            }
        ),
    }
}

fn cam(v: usize) -> String {
    format!("cam-{v:04}")
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------
// In-process engine: one schedule shape shared by four workloads
// ---------------------------------------------------------------------

/// Admit `spec.v` streams one by one into a fresh runtime.
fn admit<'a>(
    env: &Env<'a>,
    spec: &RtSpec,
    run: &mut Run,
    opens: &mut Opens,
) -> Res<(Rt<'a>, Vec<StreamId>)> {
    let mut rt = Rt::new(env.fx, spec, env.tr);
    let mut ids = Vec::with_capacity(spec.v);
    for v in 0..spec.v {
        ids.push(run.one(opens.time(|| rt.open(cam(v))))?);
    }
    Ok((rt, ids))
}

/// Round-robin single-segment pushes of `rounds`, marking a window after
/// every `quota`-th round: streams advance in lockstep, so that is the
/// push on which the epoch's batch dispatches. (The epoch *counter* moves
/// one dispatch later — the barrier is lazy — so it cannot mark windows.)
/// Returns the segments pushed since the last mark.
fn push_rounds<'s>(
    rt: &mut Rt<'_>,
    ids: &[StreamId],
    rounds: std::ops::Range<usize>,
    quota: usize,
    seg_of: impl Fn(usize, usize) -> &'s Segment,
    steady: &mut Steady,
    run: &mut Run,
) -> Res<u64> {
    let mut pending = 0;
    for r in rounds {
        for (v, id) in ids.iter().enumerate() {
            if let Err(e) = rt.push(*id, seg_of(v, r)) {
                run.attempted += v as u64;
                return run.one(Err(e));
            }
        }
        run.attempted += ids.len() as u64;
        pending += ids.len() as u64;
        if (r + 1) % quota == 0 {
            steady.mark(pending, run);
            pending = 0;
        }
    }
    Ok(pending)
}

/// A plain in-process run with spans off: admit, push `rounds`,
/// optionally close every stream, finish. The reference side of several
/// cross-engine checks.
fn plain_run<'s>(
    env: &Env<'_>,
    spec: &RtSpec,
    rounds: usize,
    close: bool,
    seg_of: impl Fn(usize, usize) -> &'s Segment,
) -> Res<Outcome> {
    let quiet = Tracer::off();
    let env = env.quiet(&quiet);
    let (mut run, mut opens) = (Run::start(), Opens::new());
    let (mut rt, ids) = admit(&env, spec, &mut run, &mut opens)?;
    let quota = spec.epoch_segs(env.fx);
    let mut steady = Steady::start();
    push_rounds(
        &mut rt,
        &ids,
        0..rounds,
        quota,
        seg_of,
        &mut steady,
        &mut run,
    )?;
    if close {
        for id in &ids {
            rt.close(*id)?;
        }
    }
    rt.finish()
}

fn fleet_steady(env: &Env<'_>, run: &mut Run, reps: usize) -> Res<WorkloadResult> {
    let fx = env.fx;
    let v = env.sizes.v(128);
    let spec = env.spec(RtSpec::memory(v, None, env.shards));
    let epoch = spec.epoch_segs(fx);
    // One day at full scale, split across the repetitions in whole
    // planning epochs — at least two each (a single 0.6 s window is at the
    // mercy of one burst), unless the whole schedule is shorter than that
    // (`check`).
    let total = env.sizes.rounds(sut::DAY_SEGS);
    let rounds = if total >= 2 * epoch {
        (total / reps / epoch).max(2) * epoch
    } else {
        total
    };

    let phase = env.tr.phase("fleet_steady/admit");
    let mut opens = Opens::new();
    let (mut rt, ids) = admit(env, &spec, run, &mut opens)?;
    env.tr.end(phase);

    let phase = env.tr.phase("fleet_steady/steady");
    let mut steady = Steady::start();
    let seg_of = |v: usize, r: usize| &fx.rec(v)[r];
    let pending = push_rounds(&mut rt, &ids, 0..rounds, epoch, seg_of, &mut steady, run)?;
    let out = run.one(rt.finish())?;
    steady.close_if_empty(pending, run);
    env.tr.end(phase);

    let mut r = WorkloadResult::default();
    steady.report("segments", &mut r);
    opens.report("streams admitted one by one", &mut r);
    r.metrics.extend(outcome_metrics(&out));
    r.checks.push(conservation(&out, rounds as u64, v));
    r.fingerprint = fingerprint(&out);
    r.facts.push((
        "shape",
        format!("V={v}, {epoch}-segment epochs (model cadence), {rounds} rounds"),
    ));
    for (size, name) in [
        (8, "open_ms_v8"),
        (32, "open_ms_v32"),
        (64, "open_ms_v64"),
        (128, "open_ms_v128"),
    ] {
        if v >= size {
            r.layer.push((name, mean(&r.open_ms[size - 8..size])));
        }
    }
    Ok(r)
}

fn short_epoch(env: &Env<'_>, run: &mut Run, reps: usize) -> Res<WorkloadResult> {
    let fx = env.fx;
    let v = env.sizes.v(64);
    let spec = env.spec(RtSpec::memory(v, Some(240.0), env.shards));
    let rounds = (env.sizes.rounds(20_000) / reps).max(1);

    let phase = env.tr.phase("short_epoch/admit");
    let mut opens = Opens::new();
    let (mut rt, ids) = admit(env, &spec, run, &mut opens)?;
    env.tr.end(phase);

    let phase = env.tr.phase("short_epoch/steady");
    let mut steady = Steady::start();
    let (quota, seg_of) = (spec.epoch_segs(fx), |v: usize, r: usize| &fx.rec(v)[r]);
    let pending = push_rounds(&mut rt, &ids, 0..rounds, quota, seg_of, &mut steady, run)?;
    env.tr.end(phase);
    let phase = env.tr.phase("short_epoch/settle");
    for id in &ids {
        run.one(rt.close(*id))?;
    }
    let epochs = rt.epoch();
    let out = run.one(rt.finish())?;
    steady.close_if_empty(pending, run);
    env.tr.end(phase);

    let mut r = WorkloadResult::default();
    steady.report("segments", &mut r);
    opens.report("streams admitted one by one", &mut r);
    r.metrics.extend(outcome_metrics(&out));
    r.checks.push(conservation(&out, rounds as u64, v));
    r.fingerprint = fingerprint(&out);
    r.facts.push((
        "shape",
        format!("V={v}, 120-segment epochs, {rounds} rounds, epoch counter ended at {epochs}"),
    ));
    r.layer.push(("epochs", epochs as f64));
    r.layer.push(("v", v as f64));
    Ok(r)
}

/// Shard count may not change a bit: 1 shard vs n on a truncated copy.
fn short_epoch_check(env: &Env<'_>) -> Res<Vec<Check>> {
    let fx = env.fx;
    let (v, rounds) = (env.sizes.v(64).min(CHECK_V), 377);
    let seg_of = |v: usize, r: usize| &fx.rec(v)[r];
    let spec = |shards| RtSpec::memory(v, Some(240.0), shards);
    let one = plain_run(env, &spec(1), rounds, true, seg_of)?;
    let many = plain_run(env, &spec(env.shards.max(2)), rounds, true, seg_of)?;
    Ok(vec![bitwise("shards=1 == shards=n", &one, &many)])
}

// ---------------------------------------------------------------------
// redundant_fleet
// ---------------------------------------------------------------------

const GROUP_CAMS: usize = 8;

/// What one drive of the redundant fleet produced.
struct RedundantDrive {
    out: Outcome,
    steady: Steady,
    opens: Opens,
    push_s: f64,
    cache_entries: usize,
}

/// Drive `groups × 8` co-located cameras; camera 0 of each group leads by
/// one epoch, so what it publishes at a barrier is what its followers look
/// up in the next epoch.
fn redundant_drive(
    env: &Env<'_>,
    run: &mut Run,
    groups: usize,
    rounds: usize,
    dedup: bool,
) -> Res<RedundantDrive> {
    let v = groups * GROUP_CAMS;
    let mut spec = RtSpec::memory(v, Some(240.0), env.shards);
    if dedup {
        spec = spec.dedup();
    }
    let spec = env.spec(spec);
    let lead = spec.epoch_segs(env.fx);
    let fleet = sut::redundant_fleet(env.fx.seed, groups, GROUP_CAMS, rounds + lead);
    let seg_of = |v: usize, r: usize| {
        let (g, c) = (v / GROUP_CAMS, v % GROUP_CAMS);
        &fleet[g][c][r + if c == 0 { lead } else { 0 }]
    };
    let mut opens = Opens::new();
    let (mut rt, ids) = admit(env, &spec, run, &mut opens)?;
    let mut steady = Steady::start();
    let t = Instant::now();
    let pending = push_rounds(&mut rt, &ids, 0..rounds, lead, seg_of, &mut steady, run)?;
    let cache_entries = rt.dedup_cache_entries();
    let out = run.one(rt.finish())?;
    let push_s = t.elapsed().as_secs_f64();
    steady.close_if_empty(pending, run);
    Ok(RedundantDrive {
        out,
        steady,
        opens,
        push_s,
        cache_entries,
    })
}

fn redundant_shape(env: &Env<'_>, reps: usize) -> (usize, usize) {
    let groups = (env.sizes.v(64) / GROUP_CAMS).max(1);
    (groups, (env.sizes.rounds(12_000) / reps).max(1))
}

fn redundant_fleet(env: &Env<'_>, run: &mut Run, reps: usize) -> Res<WorkloadResult> {
    let (groups, rounds) = redundant_shape(env, reps);
    let phase = env.tr.phase("redundant_fleet/run");
    let d = redundant_drive(env, run, groups, rounds, true)?;
    env.tr.end(phase);

    let mut r = WorkloadResult::default();
    d.steady.report("segments", &mut r);
    d.opens.report("streams admitted one by one", &mut r);
    r.metrics.extend(outcome_metrics(&d.out));
    r.checks
        .push(conservation(&d.out, rounds as u64, groups * GROUP_CAMS));
    r.fingerprint = fingerprint(&d.out);
    let lookups: u64 = d.out.streams.iter().map(|s| s.dedup_lookups).sum();
    let hits: u64 = d.out.streams.iter().map(|s| s.dedup_hits).sum();
    let saved: f64 = d.out.streams.iter().map(|s| s.work_saved_core_s).sum();
    r.facts.push((
        "shape",
        format!(
            "{groups} groups x {GROUP_CAMS} cameras, 120-segment epochs, {rounds} rounds, exact dedup"
        ),
    ));
    r.facts.push((
        "dedup",
        format!(
            "{hits} hits of {lookups} lookups, {} cache entries, {saved:.0} core-s saved",
            d.cache_entries
        ),
    ));
    r.layer.extend([
        ("dedup_lookups", lookups as f64),
        ("dedup_hits", hits as f64),
        ("dedup_entries", d.cache_entries as f64),
        ("dedup_saved_core_s", saved),
    ]);
    Ok(r)
}

/// Exact dedup may not change a bit: on vs off on a truncated copy.
fn redundant_fleet_check(env: &Env<'_>) -> Res<Vec<Check>> {
    let quiet = Tracer::off();
    let env = env.quiet(&quiet);
    let groups = (env.sizes.v(64) / GROUP_CAMS).clamp(1, CHECK_V / GROUP_CAMS);
    let mut run = Run::start();
    let on = redundant_drive(&env, &mut run, groups, 377, true)?;
    let off = redundant_drive(&env, &mut run, groups, 377, false)?;
    Ok(vec![bitwise("dedup-exact == dedup-off", &on.out, &off.out)])
}

/// Wall seconds of `redundant_fleet`'s push phase with exact dedup on and
/// off, same fleet and size, spans off on both: what
/// `dedupe.ns_per_lookup` subtracts.
pub fn redundant_walls(env: &Env<'_>) -> Res<(f64, f64)> {
    let (groups, rounds) = redundant_shape(env, 1);
    let mut run = Run::start();
    let on = redundant_drive(env, &mut run, groups, rounds, true)?.push_s;
    let off = redundant_drive(env, &mut run, groups, rounds, false)?.push_s;
    Ok((on, off))
}

// ---------------------------------------------------------------------
// durable_recover
// ---------------------------------------------------------------------

/// Planning cadence and snapshot cadence of `durable_recover`.
const DURABLE_REPLAN_S: f64 = 1_800.0;
const SNAPSHOT_EVERY: usize = 4;

fn durable_recover(env: &Env<'_>, run: &mut Run, reps: usize) -> Res<WorkloadResult> {
    let fx = env.fx;
    let v = env.sizes.v(64);
    let base = RtSpec::memory(v, Some(DURABLE_REPLAN_S), env.shards);
    let epoch = base.epoch_segs(fx);
    // Repetitions share the schedule's first half rather than a third of
    // it each: the crash has to land behind the snapshot taken at epoch 4,
    // and mid-epoch, so recovery both loads a snapshot and replays a tail.
    let crash = match env.sizes.rounds(19_877) / reps.min(2) {
        r if r % epoch == 0 => r + 77,
        r => r,
    };
    let cont = env.sizes.rounds(200).max(20);
    let seg_of = |v: usize, r: usize| &fx.rec(v)[r];
    let mut layer: Vec<(&'static str, f64)> = Vec::new();

    // Phase A: serve durably, then crash (drop without finish).
    let dir = env.tmp.dir("durable").map_err(io)?;
    let spec = env.spec(base.clone().durable(dir.clone(), SNAPSHOT_EVERY));
    let phase = env.tr.phase("durable_recover/serve");
    let mut opens = Opens::new();
    let (mut rt, ids) = admit(env, &spec, run, &mut opens)?;
    let mut steady = Steady::start();
    let pending = push_rounds(&mut rt, &ids, 0..crash, epoch, seg_of, &mut steady, run)?;
    steady.close_if_empty(pending, run);
    drop(rt);
    env.tr.end(phase);
    let (wal_bytes, ckpt_bytes) = (dir_bytes(&dir, ".wal"), dir_bytes(&dir, ".ckpt"));

    // Phase B: recover a copy of the directory, three times.
    let phase = env.tr.phase("durable_recover/recover");
    let mut recover_s = Vec::new();
    let mut last = None;
    for i in 0..3 {
        let copy = env.tmp.file(&format!("durable-copy-{i}"));
        copy_dir(&dir, &copy).map_err(io)?;
        let spec = env.spec(base.clone().durable(copy, SNAPSHOT_EVERY));
        let t = Instant::now();
        let recovered = run.one(Rt::recover(fx, &spec, env.tr))?;
        recover_s.push(t.elapsed().as_secs_f64());
        run.rss.sample();
        last = Some(recovered);
    }
    env.tr.end(phase);
    let (mut rt, rec) = last.expect("three recoveries ran");
    let resumed = rec.streams.len() == v && rec.streams.iter().all(|s| s.1 == crash as u64);

    // Liveness: the recovered runtime keeps serving and settles.
    let phase = env.tr.phase("durable_recover/continue");
    let ids: Vec<StreamId> = rec.streams.iter().map(|s| s.0).collect();
    let mut after = Steady::start();
    push_rounds(
        &mut rt,
        &ids,
        crash..crash + cont,
        epoch,
        seg_of,
        &mut after,
        run,
    )?;
    if env.tr.enabled() {
        // Snapshot cost at this stream age, then the cost of loading it
        // back with no journal tail behind it (snapshots off in the
        // recovering config, so recovery does not write one of its own).
        let t = Instant::now();
        rt.checkpoint_now()?;
        let snap_s = t.elapsed().as_secs_f64();
        let snap_dir = env.tmp.file("durable-snap");
        copy_dir(&env.tmp.file("durable-copy-2"), &snap_dir).map_err(io)?;
        let quiet = Tracer::off();
        let t = Instant::now();
        let (reloaded, rep) = Rt::recover(fx, &base.clone().durable(snap_dir.clone(), 0), &quiet)?;
        let load_s = t.elapsed().as_secs_f64();
        drop(reloaded);
        layer.extend([
            ("snapshot_s", snap_s),
            ("snapshot_reload_s", load_s),
            ("snapshot_reload_tail_segs", rep.tail_segs as f64),
            ("snapshot_bytes", dir_bytes(&snap_dir, ".ckpt") as f64),
        ]);
    }
    let out = run.one(rt.finish())?;
    env.tr.end(phase);

    let mut r = WorkloadResult::default();
    steady.report("segments", &mut r);
    opens.report("streams admitted one by one", &mut r);
    r.metrics.push(Metric {
        name: "recover_s",
        value: median(&recover_s),
        unit: "s",
        spread: iqr_share(&recover_s),
        note: format!(
            "median of {} recoveries of a copy ({} tail segments, snapshot {})",
            recover_s.len(),
            rec.tail_segs,
            if rec.from_snapshot {
                "loaded"
            } else {
                "absent"
            }
        ),
    });
    r.metrics.extend(outcome_metrics(&out));
    r.checks.push(conservation(&out, (crash + cont) as u64, v));
    r.checks.push(Check {
        name: "recovery resumes at the crash point".into(),
        ok: resumed,
        detail: format!(
            "{} streams, each expected at {crash} accepted segments; {} torn bytes discarded",
            rec.streams.len(),
            rec.discarded_bytes
        ),
    });
    r.fingerprint = fingerprint(&out);
    r.facts.push((
        "shape",
        format!(
            "V={v}, {epoch}-segment epochs, snapshot every {SNAPSHOT_EVERY}, crash at round {crash}, {cont} rounds after"
        ),
    ));
    r.facts.push((
        "directory at crash",
        format!("journal {wal_bytes} B, snapshot {ckpt_bytes} B"),
    ));
    layer.extend([
        ("tail_segs", rec.tail_segs as f64),
        ("discarded_bytes", rec.discarded_bytes as f64),
        ("stream_age", (crash + cont) as f64),
    ]);
    r.layer = layer;
    Ok(r)
}

/// Truncated copy: durable == memory, and crash + recover + finish ==
/// never interrupted. Four epochs plus a tail, so a snapshot is taken.
fn durable_recover_check(env: &Env<'_>) -> Res<Vec<Check>> {
    let fx = env.fx;
    let quiet = Tracer::off();
    let env = env.quiet(&quiet);
    let base = RtSpec::memory(
        env.sizes.v(64).min(CHECK_V),
        Some(DURABLE_REPLAN_S),
        env.shards,
    );
    let epoch = base.epoch_segs(fx);
    let (crash, cont) = (SNAPSHOT_EVERY * epoch + 77, 23);
    let seg_of = |v: usize, r: usize| &fx.rec(v)[r];
    let memory = plain_run(&env, &base, crash + cont, false, seg_of)?;
    let dir = env.tmp.dir("durable-check-a").map_err(io)?;
    let durable = plain_run(
        &env,
        &base.clone().durable(dir, SNAPSHOT_EVERY),
        crash + cont,
        false,
        seg_of,
    )?;

    let dir = env.tmp.dir("durable-check-b").map_err(io)?;
    let spec = base.durable(dir, SNAPSHOT_EVERY);
    let (mut run, mut opens, mut steady) = (Run::start(), Opens::new(), Steady::start());
    let (mut rt, ids) = admit(&env, &spec, &mut run, &mut opens)?;
    push_rounds(
        &mut rt,
        &ids,
        0..crash,
        epoch,
        seg_of,
        &mut steady,
        &mut run,
    )?;
    drop(rt);
    let (mut rt, rec) = Rt::recover(fx, &spec, &quiet)?;
    let ids: Vec<StreamId> = rec.streams.iter().map(|s| s.0).collect();
    push_rounds(
        &mut rt,
        &ids,
        crash..crash + cont,
        epoch,
        seg_of,
        &mut steady,
        &mut run,
    )?;
    let recovered = rt.finish()?;
    Ok(vec![
        bitwise("durable == memory", &memory, &durable),
        bitwise(
            "recovered-then-finished == uninterrupted",
            &memory,
            &recovered,
        ),
    ])
}

// ---------------------------------------------------------------------
// Wire workloads
// ---------------------------------------------------------------------

/// Segments per planning epoch of the wire workloads (240 s at 2 s).
const WIRE_EPOCH: usize = 120;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Idle until `due`: sleep while far, spin when close (a sleep overshoots
/// by more than the 250 µs message period).
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Connect the workload's connections and open one stream per name
/// alternately across them, so slot order is deterministic.
fn wire_open<'t>(
    env: &Env<'t>,
    ep: &Endpoint,
    names: impl Iterator<Item = String>,
    run: &mut Run,
    opens: &mut Opens,
) -> Res<(Vec<Client<'t>>, Vec<u64>)> {
    let mut clients = Vec::with_capacity(env.conns);
    for _ in 0..env.conns {
        clients.push(run.one(Client::connect(ep, env.tr))?);
    }
    let mut slots = Vec::new();
    for (s, name) in names.enumerate() {
        let c = &mut clients[s % env.conns];
        slots.push(run.one(opens.time(|| c.open_stream(&name)))?);
    }
    Ok((clients, slots))
}

/// What the driver side of `wire_camera` measured.
struct WireDrive {
    steady: Steady,
    opens: Opens,
    ack_ms: Vec<f64>,
    age_p99_ms: Vec<f64>,
    age_samples: usize,
    missed: u64,
    late: u64,
    paced: u64,
    retries: u64,
    refed: u64,
    server_cpu_s: f64,
    rtt_empty_us: f64,
}

/// Rounds of `wire_camera`'s legs: closed loop, then `windows` paced
/// windows of `window_rounds` each.
struct WireShape {
    v: usize,
    closed_rounds: usize,
    window_rounds: usize,
    windows: usize,
}

impl WireShape {
    fn total_rounds(&self) -> usize {
        self.closed_rounds + self.windows * self.window_rounds
    }
}

fn wire_drive(env: &Env<'_>, ep: &Endpoint, shape: &WireShape, run: &mut Run) -> Res<WireDrive> {
    let fx = env.fx;
    let v = shape.v;
    let phase = env.tr.phase("wire_camera/open");
    let mut opens = Opens::new();
    let (mut clients, slots) = wire_open(env, ep, (0..v).map(cam), run, &mut opens)?;
    env.tr.end(phase);

    // A request that does no engine work: bare forwarding cost.
    let mut rtt_empty_us = 0.0;
    if env.tr.enabled() {
        let t = Instant::now();
        for i in 0..200 {
            clients[i % env.conns].stats()?;
        }
        rtt_empty_us = t.elapsed().as_secs_f64() * 1e6 / 200.0;
    }

    // Leg 1, closed loop: the next message goes out when the previous one
    // is acknowledged.
    let phase = env.tr.phase("wire_camera/closed_loop");
    let mut ack_ms = Vec::with_capacity(shape.closed_rounds * v);
    let (mut retries, mut refed) = (0, 0);
    let mut steady = Steady::start();
    let driver_cpu = thread_cpu_secs();
    let mut pending = 0;
    for r in 0..shape.closed_rounds {
        for s in 0..v {
            let seg = std::slice::from_ref(&fx.rec(s)[r]);
            let t = Instant::now();
            let info = run.one(clients[s % env.conns].push_batch(slots[s], seg))?;
            ack_ms.push(ms(t.elapsed()));
            retries += info.retries;
            refed += info.refed_segs;
        }
        pending += v as u64;
        if (r + 1) % WIRE_EPOCH == 0 {
            steady.mark(pending, run);
            pending = 0;
        }
    }
    steady.close_if_empty(pending, run);
    let server_cpu_s = (steady.cpu_end - steady.cpu_start) - (thread_cpu_secs() - driver_cpu);
    env.tr.end(phase);

    // Leg 2, open loop: messages are due on a fixed schedule and aged from
    // their due time, so a stall is charged to everything queued behind it.
    let phase = env.tr.phase("wire_camera/open_loop");
    let (mut age_p99_ms, mut age_samples) = (Vec::new(), 0);
    let (mut missed, mut late, mut paced) = (0u64, 0u64, 0u64);
    for w in 0..shape.windows {
        let first = shape.closed_rounds + w * shape.window_rounds;
        let pacer = Pacer::new(Instant::now(), PACED_MSGS_PER_S);
        let mut ages = Vec::with_capacity(shape.window_rounds * v);
        let mut i = 0u64;
        for r in first..first + shape.window_rounds {
            for s in 0..v {
                wait_until(pacer.due(i));
                let sent = Instant::now();
                let seg = std::slice::from_ref(&fx.rec(s)[r]);
                let info = run.one(clients[s % env.conns].push_batch(slots[s], seg))?;
                let age = ms(pacer.age(i, Instant::now()));
                late += u64::from(pacer.lateness(i, sent) > Duration::from_millis(1));
                missed += u64::from(age > KEEP_UP_LIMIT_MS);
                ages.push(age);
                retries += info.retries;
                refed += info.refed_segs;
                i += 1;
            }
        }
        paced += i;
        let t = tail(&ages, 99.0);
        age_samples = t.n;
        age_p99_ms.push(t.value);
        run.rss.sample();
    }
    env.tr.end(phase);

    let phase = env.tr.phase("wire_camera/close");
    for s in 0..v {
        run.one(clients[s % env.conns].close_stream(slots[s]))?;
    }
    env.tr.end(phase);
    Ok(WireDrive {
        steady,
        opens,
        ack_ms,
        age_p99_ms,
        age_samples,
        missed,
        late,
        paced,
        retries,
        refed,
        server_cpu_s,
        rtt_empty_us,
    })
}

fn wire_camera(env: &Env<'_>, run: &mut Run, reps: usize) -> Res<WorkloadResult> {
    // Every repetition runs the whole closed-loop leg (on one core it is
    // 20 ms per epoch), in whole epochs when the schedule has three at all:
    // the rate is a median over windows.
    let closed = env.sizes.rounds(1_500);
    let shape = WireShape {
        v: env.sizes.v(32),
        closed_rounds: if closed >= 3 * WIRE_EPOCH {
            closed / WIRE_EPOCH * WIRE_EPOCH
        } else {
            closed
        },
        window_rounds: (env.sizes.rounds(600) / reps).max(1),
        windows: 3,
    };
    let v = shape.v;
    let dir = env.tmp.dir("wire").map_err(io)?;
    let spec = env.spec(RtSpec::memory(v, Some(240.0), env.shards).durable(dir, 8));
    let svc = Svc::new(env.fx, &spec, env.tr);
    let sock = env.tmp.file("wire.sock");
    let (served, d) = sut::with_server(svc, &sock, env.tr, Cores::One, |ep| {
        wire_drive(env, ep, &shape, run)
    })?;
    run.attempted += 1; // the drain behind shutdown_server
    let out = served.outcome.clone();

    let mut r = WorkloadResult::default();
    d.steady.report("one-segment messages", &mut r);
    d.opens.report(
        &format!("streams opened over {} connections", env.conns),
        &mut r,
    );
    r.metrics.push(Metric {
        name: "ack_ms_p50",
        value: median(&d.ack_ms),
        unit: "ms",
        spread: 0.0,
        note: format!("closed loop, {} samples", d.ack_ms.len()),
    });
    r.metrics.push(Metric {
        name: "ack_age_ms_p99",
        value: median(&d.age_p99_ms),
        unit: "ms",
        spread: iqr_share(&d.age_p99_ms),
        note: format!(
            "open loop at {PACED_MSGS_PER_S} msgs/s, aged from due time; median of {} windows x {} samples; keep-up limit {KEEP_UP_LIMIT_MS} ms missed by {} of {}",
            d.age_p99_ms.len(),
            d.age_samples,
            d.missed,
            d.paced
        ),
    });
    r.metrics.extend(outcome_metrics(&out));
    r.checks
        .push(conservation(&out, shape.total_rounds() as u64, v));
    r.checks.push(clean_serve(&served));
    r.fingerprint = fingerprint(&out);
    let msgs = d.steady.windows.segments().max(1) as f64;
    r.facts.push((
        "shape",
        format!(
            "V={v} over {} connections, 120-segment epochs, journal + snapshot every 8; {} closed-loop rounds, {} x {} paced rounds",
            env.conns, shape.closed_rounds, shape.windows, shape.window_rounds
        ),
    ));
    r.facts.push((
        "net",
        format!(
            "{} retries, {} re-fed segments, generator >1 ms late on {} of {} paced sends",
            d.retries, d.refed, d.late, d.paced
        ),
    ));
    r.layer.extend([
        ("ack_us_p50", median(&d.ack_ms) * 1e3),
        ("ack_us_tail", tail(&d.ack_ms, 99.0).value * 1e3),
        ("server_cpu_us_per_msg", d.server_cpu_s * 1e6 / msgs),
        ("retries", d.retries as f64),
        ("refed_segs", d.refed as f64),
        ("gen_late_share", d.late as f64 / d.paced.max(1) as f64),
        ("rtt_us_empty", d.rtt_empty_us),
    ]);
    Ok(r)
}

/// A socket in the path may not change a bit: the same truncated schedule
/// over the wire (journal on) and through an in-process service.
fn wire_camera_check(env: &Env<'_>) -> Res<Vec<Check>> {
    let quiet = Tracer::off();
    let env = env.quiet(&quiet);
    let (v, rounds) = (env.sizes.v(32).min(8), 257);

    let dir = env.tmp.dir("wire-check").map_err(io)?;
    let spec = RtSpec::memory(v, Some(240.0), env.shards).durable(dir, 8);
    let svc = Svc::new(env.fx, &spec, &quiet);
    let sock = env.tmp.file("wire-check.sock");
    let (mut run, mut opens) = (Run::start(), Opens::new());
    let (wire, ()) = sut::with_server(svc, &sock, &quiet, Cores::One, |ep| {
        let (mut clients, slots) = wire_open(&env, ep, (0..v).map(cam), &mut run, &mut opens)?;
        for r in 0..rounds {
            for s in 0..v {
                let seg = std::slice::from_ref(&env.fx.rec(s)[r]);
                clients[s % env.conns].push_batch(slots[s], seg)?;
            }
        }
        for s in 0..v {
            clients[s % env.conns].close_stream(slots[s])?;
        }
        Ok(())
    })?;

    let mut svc = Svc::new(env.fx, &RtSpec::memory(v, Some(240.0), env.shards), &quiet);
    let ids = (0..v).map(|s| svc.open(cam(s))).collect::<Res<Vec<_>>>()?;
    for r in 0..rounds {
        for (s, id) in ids.iter().enumerate() {
            svc.push_batch(*id, std::slice::from_ref(&env.fx.rec(s)[r]))?;
        }
    }
    for id in &ids {
        svc.close(*id)?;
    }
    let local = svc.drain()?;
    Ok(vec![bitwise(
        "socket == in-process service",
        &wire.outcome,
        &local,
    )])
}

/// Segments every churned stream pushes, as two 30-segment messages —
/// under one epoch quota, so a wave is settled by the next wave's
/// admission flush rather than by a barrier dispatch.
const CHURN_SEGS: usize = 60;
const CHURN_BATCH: usize = 30;

/// The segments stream `ticket` of wave `w` sends.
fn churn_segs(fx: &Fixture, ticket: usize, w: usize) -> &[Segment] {
    &fx.rec(ticket)[w * CHURN_SEGS..(w + 1) * CHURN_SEGS]
}

/// What the driver side of `churn_wire` measured.
struct ChurnDrive {
    steady: Steady,
    opens: Opens,
    push_ms: Vec<f64>,
    retries: u64,
}

/// `waves` waves of `active` streams over fresh connections: connect,
/// open by profile name, push, close, disconnect. One window per wave.
fn churn_drive(
    env: &Env<'_>,
    ep: &Endpoint,
    active: usize,
    waves: usize,
    run: &mut Run,
) -> Res<ChurnDrive> {
    let mut d = ChurnDrive {
        steady: Steady::start(),
        opens: Opens::new(),
        push_ms: Vec::new(),
        retries: 0,
    };
    for w in 0..waves {
        let names = (0..active).map(|i| cam(w * active + i));
        let (mut clients, slots) = wire_open(env, ep, names, run, &mut d.opens)?;
        for (i, &slot) in slots.iter().enumerate() {
            if slot as usize != w * active + i {
                return Err(format!("stream {} landed in slot {slot}", w * active + i));
            }
            for part in churn_segs(env.fx, w * active + i, w).chunks(CHURN_BATCH) {
                let t = Instant::now();
                let info = run.one(clients[i % env.conns].push_batch(slot, part))?;
                d.push_ms.push(ms(t.elapsed()));
                d.retries += info.retries;
            }
        }
        for (i, &slot) in slots.iter().enumerate() {
            run.one(clients[i % env.conns].close_stream(slot))?;
        }
        drop(clients);
        d.steady.mark((active * CHURN_SEGS) as u64, run);
    }
    Ok(d)
}

fn churn_wire(env: &Env<'_>, run: &mut Run, reps: usize) -> Res<WorkloadResult> {
    let active = env.sizes.v(32);
    let waves = (env.sizes.rounds(32) / reps).max(2);
    let spec = env.spec(RtSpec::memory(active, Some(240.0), env.shards));
    let svc = Svc::new(env.fx, &spec, env.tr);
    let sock = env.tmp.file("churn.sock");
    let phase = env.tr.phase("churn_wire/waves");
    let (served, d) = sut::with_server(svc, &sock, env.tr, Cores::One, |ep| {
        churn_drive(env, ep, active, waves, run)
    })?;
    env.tr.end(phase);
    run.attempted += 1; // the drain behind shutdown_server
    let out = served.outcome.clone();

    let mut r = WorkloadResult::default();
    // One window per wave: connects, opens and closes are inside it.
    d.steady.report("segments, one window per wave", &mut r);
    d.opens.report("opens over the wire at V <= 32", &mut r);
    r.metrics.extend(outcome_metrics(&out));
    r.checks
        .push(conservation(&out, CHURN_SEGS as u64, waves * active));
    r.checks.push(clean_serve(&served));
    r.fingerprint = fingerprint(&out);
    r.facts.push((
        "shape",
        format!(
            "{waves} waves x {active} streams over {} fresh connections each, {CHURN_SEGS} segments per stream in {CHURN_BATCH}-segment messages, {} retries",
            env.conns, d.retries
        ),
    ));
    r.layer.extend([
        ("push_us_30seg", median(&d.push_ms) * 1e3),
        ("retries", d.retries as f64),
    ]);
    Ok(r)
}

/// Two waves over the socket and through an in-process service.
fn churn_wire_check(env: &Env<'_>) -> Res<Vec<Check>> {
    let quiet = Tracer::off();
    let env = env.quiet(&quiet);
    let (active, waves) = (env.sizes.v(32).min(CHECK_V), 2);
    let spec = RtSpec::memory(active, Some(240.0), env.shards);

    let svc = Svc::new(env.fx, &spec, &quiet);
    let sock = env.tmp.file("churn-check.sock");
    let mut run = Run::start();
    let (wire, _) = sut::with_server(svc, &sock, &quiet, Cores::One, |ep| {
        churn_drive(&env, ep, active, waves, &mut run)
    })?;

    let mut svc = Svc::new(env.fx, &spec, &quiet);
    for w in 0..waves {
        let ids = (0..active)
            .map(|i| svc.open(cam(w * active + i)))
            .collect::<Res<Vec<_>>>()?;
        for (i, id) in ids.iter().enumerate() {
            for part in churn_segs(env.fx, w * active + i, w).chunks(CHURN_BATCH) {
                svc.push_batch(*id, part)?;
            }
        }
        for id in &ids {
            svc.close(*id)?;
        }
    }
    let local = svc.drain()?;
    Ok(vec![bitwise(
        "socket == in-process service",
        &wire.outcome,
        &local,
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(rates: &[f64], opens: &[f64], cpu: f64, quality: f64, fp: u64) -> WorkloadResult {
        let mut r = WorkloadResult {
            fingerprint: fp,
            ..WorkloadResult::default()
        };
        r.metrics.push(Metric {
            name: "ingest_segs_per_s",
            value: median(rates),
            unit: "segs/s",
            spread: 0.0,
            note: "one".into(),
        });
        r.window_rates = rates.to_vec();
        r.metrics.push(Metric {
            name: "cpu_us_per_seg",
            value: cpu,
            unit: "us",
            spread: 0.0,
            note: "one".into(),
        });
        Opens { ms: opens.to_vec() }.report("opens", &mut r);
        r.metrics.push(Metric {
            name: "quality_mean",
            value: quality,
            unit: "ratio",
            spread: 0.0,
            note: "one".into(),
        });
        r
    }

    #[test]
    fn repetitions_merge_window_by_window_and_open_by_open() {
        // A burst slows window 1 of the first repetition and open 0 of the
        // second; neither survives the merge.
        let merged = merge(vec![
            rep(&[100.0, 20.0, 100.0], &[10.0, 20.0], 5.0, 0.5, 7),
            rep(&[90.0, 95.0, 110.0], &[50.0, 21.0], 4.0, 0.5, 7),
            rep(&[95.0, 90.0, 105.0], &[11.0, 19.0], 6.0, 0.5, 7),
        ]);
        assert_eq!(merged.window_rates, [100.0, 95.0, 110.0]);
        assert_eq!(merged.metric("ingest_segs_per_s").unwrap().value, 100.0);
        assert_eq!(merged.open_ms, [10.0, 19.0]);
        assert_eq!(merged.metric("admit_fleet_s").unwrap().value, 0.029);
        assert_eq!(merged.metric("open_ms_p50").unwrap().value, 14.5);
        assert_eq!(merged.metric("cpu_us_per_seg").unwrap().value, 4.0);
        assert!(merged.metric("cpu_us_per_seg").unwrap().spread > 0.0);
        assert_eq!(merged.metric("quality_mean").unwrap().value, 0.5);
        assert!(merged.checks.iter().all(|c| c.ok));
    }

    #[test]
    fn repetitions_must_agree_exactly_on_what_is_deterministic() {
        let drifted = merge(vec![
            rep(&[90.0], &[1.0], 1.0, 0.5, 7),
            rep(&[90.0], &[1.0], 1.0, 0.5 + 1e-16, 8),
        ]);
        let check = drifted.checks.last().unwrap();
        assert!(!check.ok);
        assert!(check.detail.contains("quality_mean") && check.detail.contains("fingerprint"));
    }

    #[test]
    fn a_single_repetition_passes_through() {
        let one = merge(vec![rep(&[90.0], &[1.0], 1.0, 0.5, 7)]);
        assert_eq!(one.metric("ingest_segs_per_s").unwrap().note, "one");
        assert!(one.checks.is_empty());
        assert!(merge(Vec::new()).metrics.is_empty());
    }

    #[test]
    fn every_workload_is_registered_once() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.phase.ends_with(w.name));
            assert_eq!(why(w.name), w.why);
        }
        assert_eq!(why("no_such_workload"), "");
    }
}
