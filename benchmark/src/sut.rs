//! The adapter: the one file that calls into the system under test.
//!
//! Every call into `skyscraper`, `vetl-net`, `vetl-workloads` and
//! `vetl-video` is made here, through the narrowest public surface that
//! carries the workloads, and every call is wrapped in a bench-side span
//! (see [`crate::trace`]). Nothing in this file measures or decides; it
//! only forwards — with one exception: [`with_server`] confines a socket
//! leg to one core, because that has to happen before the server's threads
//! exist. A later change that reshapes the engine's API edits this file and
//! nothing else of the benchmark.
//!
//! Surface used:
//! `IngestRuntime::{new, open_stream, push, close_stream, finish, epoch,
//! checkpoint_now, recover, dedup_cache}` ·
//! `IngestService::{new, register_profile, open, push_batch, close, drain}` ·
//! `NetServer::{bind, handle, serve}` ·
//! `NetClient::{connect, open_stream, push_batch, close_stream, stats,
//! get_metrics, shutdown_server}` ·
//! `IngestSession::{new, push, push_arrival, forecast_distribution, finish}` ·
//! `Request::{encode_push, decode}` · `Reply::{encode, decode}` ·
//! `joint_plan{,_warm}` · `KnobSwitcher::{new, decide}` · `run_offline` ·
//! `WorkloadSpec::build` · `co_located_fleet` · `NetConditions` ·
//! `SyntheticCamera` · `Obs` (registry snapshot only).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use skyscraper::multistream::{joint_plan, joint_plan_warm};
use skyscraper::obs::{MetricsSnapshot, Obs};
use skyscraper::runtime::{DurabilityConfig, IngestRuntime, RuntimeConfig};
use skyscraper::serve::proto::{Reply, Request};
use skyscraper::serve::IngestService;
use skyscraper::{
    run_offline, DedupPolicy, FittedModel, IngestOptions, IngestSession, KnobPlan, KnobSwitcher,
    MultiOutcome, SkyError, SwitcherLimits, Workload,
};
use vetl_lp::LpBasis;
use vetl_net::{NetClient, NetClientConfig, NetServer, ServerConfig};
use vetl_sim::CostModel;
use vetl_video::{ContentParams, SyntheticCamera};
use vetl_workloads::spec::DataScale;
use vetl_workloads::{co_located_fleet, NetConditions, PaperWorkload, WorkloadSpec, MACHINES};

use crate::cpu::OneCore;
use crate::trace::Tracer;

pub use skyscraper::StreamId;
pub use vetl_net::Endpoint;
pub use vetl_video::Segment;

/// Every adapter call fails with the system's own message.
pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Seed of the data the offline phase is fitted on. Fixed: the fitted
/// model's *shape* (9–16 configurations, 34–70 placements across data
/// seeds 1–6) moves serving throughput by ±13 %, which would read as
/// run-to-run spread when the benchmark seed changes. The model is the
/// deployed system's configuration; `--seed` drives what the cameras send.
pub const MODEL_SEED: u64 = 7;
/// Worker threads of the offline fit. One: with two, the 0.15 s fit ranged
/// 0.13–0.38 s between back-to-back repetitions on a shared 2-core box
/// (0.16–0.21 s with one), and set-up time has to be comparable between
/// runs before work moved into set-up can show in it.
pub const FIT_WORKERS: usize = 1;
/// Camera days generated per seed; stream `v` replays recording `v mod 8`.
pub const RECORDINGS: usize = 8;
/// Segments in one camera day (2 s segments).
pub const DAY_SEGS: usize = 43_200;
/// Every recording starts at 09:00 of its day: the shopping-street
/// profile ramps into its plateau from 10:00, so even a one-hour workload
/// meets content that makes the planner and the cloud fallback work.
pub const DAY_START_SEG: usize = 9 * 1_800;
/// Cloud dollars granted to the shared wallet per planning epoch — the
/// tight provisioning the repository's own benches use.
pub const SHARED_CLOUD_BUDGET_USD: f64 = 2.0;
/// Profile name streams are opened under over the wire.
pub const PROFILE: &str = "covid";
/// Bytes a frame adds to a message body: `u32` length + `u64` checksum.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Everything set-up produces: the fitted model and the seeded inputs.
pub struct Fixture {
    spec: WorkloadSpec,
    model: FittedModel,
    /// The seeded camera days.
    pub recs: Vec<Vec<Segment>>,
    /// The benchmark seed the inputs were generated from.
    pub seed: u64,
    /// Wall seconds of the offline fit alone (`offline.fit_s`).
    pub fit_s: f64,
}

impl Fixture {
    /// Fit the model (`run_offline` on `WorkloadSpec::build(Covid, Fast,
    /// MODEL_SEED)`), generate the seed's camera days, and register the
    /// profile on a throwaway service — the set-up a deployment pays once.
    pub fn build(seed: u64, tr: &Tracer) -> Res<Self> {
        let t = tr.start("offline.build_spec");
        let mut spec = WorkloadSpec::build(PaperWorkload::Covid, DataScale::Fast, MODEL_SEED);
        tr.end(t);
        spec.hyper.n_workers = FIT_WORKERS;
        let t = tr.start("offline.run_offline");
        let t0 = Instant::now();
        let fitted = run_offline(
            spec.workload.as_ref(),
            &spec.labeled,
            &spec.unlabeled,
            MACHINES[2].hardware(4e9),
            &spec.hyper,
        );
        let fit_s = t0.elapsed().as_secs_f64();
        tr.end(t);
        let (model, _report) = fitted.map_err(err)?;

        let t = tr.start("video.record_days");
        let recs = (0..RECORDINGS as u64)
            .map(|k| camera_day(seed.wrapping_add(k)))
            .collect();
        tr.end(t);

        let fx = Self {
            spec,
            model,
            recs,
            seed,
            fit_s,
        };
        let svc = Svc::new(&fx, &RtSpec::memory(1, Some(240.0), 1), tr);
        drop(svc);
        Ok(fx)
    }

    fn workload(&self) -> &(dyn Workload + '_) {
        self.spec.workload.as_ref()
    }

    /// Segment length of the fitted model, seconds.
    pub fn seg_len(&self) -> f64 {
        self.model.seg_len
    }

    /// Segments per planning epoch when the model's own cadence is used.
    pub fn model_epoch_segs(&self) -> usize {
        (self.model.hyper.planned_interval_secs / self.model.seg_len).round() as usize
    }

    /// The recording stream `v` replays.
    pub fn rec(&self, v: usize) -> &[Segment] {
        &self.recs[v % self.recs.len()]
    }
}

/// Content of the benchmark's cameras: the shopping street of the COVID
/// workload with the per-day weather regime switched off. That regime
/// scales a whole day's intensity by up to ±22 %, which moved
/// `quality_mean` by 15 % and the cloud bill by 2x between seeds; without
/// it a seed still changes every segment (noise, burst events) but not how
/// busy the day is, so the deterministic metrics stay comparable across
/// seeds.
fn street(seed: u64) -> ContentParams {
    ContentParams {
        weather_amp: 0.0,
        ..ContentParams::shopping_street(seed)
    }
}

/// One camera day starting at 09:00.
fn camera_day(seed: u64) -> Vec<Segment> {
    let mut cam = SyntheticCamera::new(street(seed), 2.0);
    SyntheticCamera::skip(&mut cam, DAY_START_SEG);
    cam.take_segments(DAY_SEGS)
}

/// `groups` groups of `cams` co-located cameras (bit-identical timelines
/// within a group, `jitter == 0`), `rounds` segments each from 09:00.
pub fn redundant_fleet(
    seed: u64,
    groups: usize,
    cams: usize,
    rounds: usize,
) -> Vec<Vec<Vec<Segment>>> {
    (0..groups as u64)
        .map(|g| {
            let secs = (DAY_START_SEG + rounds) as f64 * 2.0;
            co_located_fleet(street(seed.wrapping_add(g)), 2.0, cams, 0.0, secs, seed)
                .into_iter()
                .map(|day| day[DAY_START_SEG..].to_vec())
                .collect()
        })
        .collect()
}

/// Arrival order of `segs` over a hostile path (delay, jitter, reordering)
/// with 2 % loss: indices into `segs`, dropped ones absent.
pub fn hostile_arrivals(segs: &[Segment], seed: u64) -> Vec<usize> {
    let mut net = NetConditions::hostile(2.0, seed);
    net.drop_prob = 0.02;
    net.delivery_schedule(segs).order
}

/// An observability attachment handed to the runtime; the benchmark only
/// ever reads its registry back.
#[derive(Clone)]
pub struct ObsHandle(Arc<Obs>);

impl ObsHandle {
    /// A fresh attachment.
    pub fn new() -> Self {
        Self(Arc::new(Obs::new()))
    }

    /// Read the registry.
    pub fn view(&self) -> ObsView {
        ObsView(self.0.registry.snapshot())
    }
}

/// A registry snapshot, local or fetched over the wire.
pub struct ObsView(MetricsSnapshot);

impl ObsView {
    /// A counter by exposition name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.0.counter(name).unwrap_or(0)
    }

    /// `(observations, total nanoseconds)` of a histogram.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        self.0
            .histogram(name)
            .map_or((0, 0), |h| (h.count, h.sum_ns))
    }
}

/// Where a durable runtime journals, and how often it snapshots.
#[derive(Clone, Debug)]
pub struct Durable {
    /// Directory for `runtime.wal` and `runtime.ckpt`.
    pub dir: PathBuf,
    /// Snapshot cadence in epochs; 0 journals only.
    pub snapshot_every: usize,
}

/// Configuration of one runtime, as the workloads vary it.
#[derive(Clone)]
pub struct RtSpec {
    /// Fleet size the cluster is provisioned for.
    pub v: usize,
    /// Planning cadence, seconds; `None` uses the model's own (6 h).
    pub replan_secs: Option<f64>,
    /// Worker shards, always explicit.
    pub shards: usize,
    /// Journal and snapshots, or memory only.
    pub durable: Option<Durable>,
    /// Exact-mode cross-stream dedup.
    pub dedup: bool,
    /// Registry attachment (traced legs only).
    pub obs: Option<ObsHandle>,
}

impl RtSpec {
    /// A memory-only runtime with dedup and recording off.
    pub fn memory(v: usize, replan_secs: Option<f64>, shards: usize) -> Self {
        Self {
            v,
            replan_secs,
            shards,
            durable: None,
            dedup: false,
            obs: None,
        }
    }

    /// The same runtime, journaling into `dir`.
    pub fn durable(mut self, dir: PathBuf, snapshot_every: usize) -> Self {
        self.durable = Some(Durable {
            dir,
            snapshot_every,
        });
        self
    }

    /// The same runtime with exact-mode dedup on.
    pub fn dedup(mut self) -> Self {
        self.dedup = true;
        self
    }

    /// The same runtime with a registry attached.
    pub fn obs(mut self, obs: &ObsHandle) -> Self {
        self.obs = Some(obs.clone());
        self
    }

    /// Segments per stream per planning epoch.
    pub fn epoch_segs(&self, fx: &Fixture) -> usize {
        match self.replan_secs {
            Some(secs) => ((secs / fx.seg_len()).round() as usize).max(1),
            None => fx.model_epoch_segs(),
        }
    }

    /// The tight provisioning: `total_cores = V · ceil(cheapest_rate)`.
    fn total_cores(&self, fx: &Fixture) -> f64 {
        let m = &fx.model;
        let cheapest_rate = m.configs[m.cheapest()].work_mean / m.seg_len;
        self.v as f64 * cheapest_rate.ceil().max(1.0)
    }

    fn config(&self, fx: &Fixture) -> RuntimeConfig {
        RuntimeConfig {
            shards: self.shards,
            shared_cloud_budget_usd: SHARED_CLOUD_BUDGET_USD,
            cost_model: CostModel::default(),
            seed: fx.seed,
            replan_interval_secs: self.replan_secs,
            total_cores: Some(self.total_cores(fx)),
            durability: self.durable.as_ref().map(|d| DurabilityConfig {
                dir: d.dir.clone(),
                checkpoint_every_epochs: d.snapshot_every,
            }),
            dedup: self.dedup.then(DedupPolicy::exact),
            obs: self.obs.as_ref().map(|o| o.0.clone()),
            ..RuntimeConfig::default()
        }
    }
}

/// What one stream settled into.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOut {
    /// Segments processed.
    pub segments: u64,
    /// `IngestOutcome::mean_quality`.
    pub mean_quality: f64,
    /// Cloud dollars the stream spent.
    pub cloud_usd: f64,
    /// Simulated work charged (on-premise + cloud), core-seconds.
    pub work_core_s: f64,
    /// Simulated work dedup hits skipped, core-seconds.
    pub work_saved_core_s: f64,
    /// Throughput-guarantee violations.
    pub overflows: u64,
    /// Dedup lookups and hits.
    pub dedup_lookups: u64,
    /// Dedup hits (full and ground-truth-only).
    pub dedup_hits: u64,
}

impl StreamOut {
    fn of(o: &skyscraper::IngestOutcome) -> Self {
        Self {
            segments: o.segments as u64,
            mean_quality: o.mean_quality,
            cloud_usd: o.cloud_usd,
            work_core_s: o.work_core_secs,
            work_saved_core_s: o.dedup.work_saved_secs,
            overflows: o.overflows as u64,
            dedup_lookups: o.dedup.lookups,
            dedup_hits: o.dedup.hits(),
        }
    }
}

/// The joint outcome of a run, per stream in admission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per-stream results.
    pub streams: Vec<StreamOut>,
    /// `MultiOutcome::cloud_usd`.
    pub cloud_usd: f64,
}

impl Outcome {
    fn of(m: &MultiOutcome) -> Self {
        Self {
            streams: m
                .streams
                .iter()
                .map(|s| StreamOut::of(&s.outcome))
                .collect(),
            cloud_usd: m.cloud_usd,
        }
    }
}

/// An in-process `IngestRuntime`. Dropping it without [`finish`](Self::finish)
/// is the crash the durable workload injects.
pub struct Rt<'a> {
    inner: IngestRuntime<'a>,
    fx: &'a Fixture,
    tr: &'a Tracer,
}

/// What `IngestRuntime::recover` restored.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// `(slot, accepted segments)` per stream, in admission order.
    pub streams: Vec<(StreamId, u64)>,
    /// Journal-tail segments replayed through the ingest path.
    pub tail_segs: u64,
    /// Torn-tail bytes discarded.
    pub discarded_bytes: u64,
    /// A snapshot seeded the recovery.
    pub from_snapshot: bool,
}

impl<'a> Rt<'a> {
    /// `IngestRuntime::new`.
    pub fn new(fx: &'a Fixture, spec: &RtSpec, tr: &'a Tracer) -> Self {
        let t = tr.start("runtime.new");
        let inner = IngestRuntime::new(spec.config(fx));
        tr.end(t);
        Self { inner, fx, tr }
    }

    /// `IngestRuntime::open_stream` on the fixture's model.
    pub fn open(&mut self, name: String) -> Res<StreamId> {
        let t = self.tr.start("runtime.open_stream");
        let r = self.inner.open_stream(
            name,
            &self.fx.model,
            self.fx.workload(),
            IngestOptions::default(),
        );
        self.tr.end(t);
        r.map_err(err)
    }

    /// `IngestRuntime::push`. When tracing, the span is named by what the
    /// call turned out to be: a mailbox enqueue, or the dispatch that
    /// crosses a planning epoch.
    #[inline]
    pub fn push(&mut self, id: StreamId, seg: &Segment) -> Res<()> {
        if !self.tr.enabled() {
            return self.inner.push(id, seg).map_err(err);
        }
        let before = self.inner.epoch();
        let t = self.tr.start("runtime.push.enqueue");
        let r = self.inner.push(id, seg);
        let crossed = self.inner.epoch() != before;
        self.tr
            .end_as(t, crossed.then_some("runtime.push.dispatch"));
        r.map_err(err)
    }

    /// `IngestRuntime::close_stream`.
    pub fn close(&mut self, id: StreamId) -> Res<()> {
        let t = self.tr.start("runtime.close_stream");
        let r = self.inner.close_stream(id);
        self.tr.end(t);
        r.map_err(err)
    }

    /// `IngestRuntime::epoch`.
    #[inline]
    pub fn epoch(&self) -> usize {
        self.inner.epoch()
    }

    /// `IngestRuntime::checkpoint_now`.
    pub fn checkpoint_now(&mut self) -> Res<()> {
        let t = self.tr.start("wal.checkpoint_now");
        let r = self.inner.checkpoint_now();
        self.tr.end(t);
        r.map_err(err)
    }

    /// Entries in the shared dedup cache (0 with dedup off).
    pub fn dedup_cache_entries(&self) -> usize {
        self.inner.dedup_cache().map_or(0, |c| c.len())
    }

    /// `IngestRuntime::finish`.
    pub fn finish(self) -> Res<Outcome> {
        let t = self.tr.start("runtime.finish");
        let r = self.inner.finish();
        self.tr.end(t);
        r.map(|m| Outcome::of(&m)).map_err(err)
    }

    /// `IngestRuntime::recover` from `spec`'s durability directory.
    pub fn recover(fx: &'a Fixture, spec: &RtSpec, tr: &'a Tracer) -> Res<(Self, Recovered)> {
        let t = tr.start("recovery.recover");
        let r = IngestRuntime::recover(spec.config(fx), &|_, _| Some((&fx.model, fx.workload())));
        tr.end(t);
        let (inner, report) = r.map_err(err)?;
        let recovered = Recovered {
            streams: report
                .streams
                .iter()
                .map(|s| (StreamId::from_index(s.slot), s.accepted_segments as u64))
                .collect(),
            tail_segs: report.replayed_segments as u64,
            discarded_bytes: report.discarded_bytes,
            from_snapshot: report.resumed_from_snapshot,
        };
        Ok((Self { inner, fx, tr }, recovered))
    }
}

/// An in-process `IngestService` with the fixture's profile registered.
pub struct Svc<'a> {
    inner: IngestService<'a>,
    tr: &'a Tracer,
}

impl<'a> Svc<'a> {
    /// `IngestService::new` + `register_profile`.
    pub fn new(fx: &'a Fixture, spec: &RtSpec, tr: &'a Tracer) -> Self {
        let t = tr.start("service.new");
        let mut inner = IngestService::new(spec.config(fx));
        inner.register_profile(PROFILE, &fx.model, fx.workload());
        tr.end(t);
        Self { inner, tr }
    }

    /// `IngestService::open` under the registered profile.
    pub fn open(&mut self, name: String) -> Res<StreamId> {
        let t = self.tr.start("service.open");
        let r = self.inner.open(PROFILE, name, IngestOptions::default());
        self.tr.end(t);
        r.map_err(err)
    }

    /// `IngestService::push_batch`.
    #[inline]
    pub fn push_batch(&mut self, id: StreamId, segs: &[Segment]) -> Res<()> {
        let t = self.tr.start("service.push_batch");
        let r = self.inner.push_batch(id, segs);
        self.tr.end(t);
        r.map_err(err)
    }

    /// `IngestService::close`.
    pub fn close(&mut self, id: StreamId) -> Res<()> {
        let t = self.tr.start("service.close");
        let r = self.inner.close(id);
        self.tr.end(t);
        r.map_err(err)
    }

    /// `IngestService::drain`.
    pub fn drain(self) -> Res<Outcome> {
        let t = self.tr.start("service.drain");
        let r = self.inner.drain();
        self.tr.end(t);
        r.map(|m| Outcome::of(&m)).map_err(err)
    }
}

/// What a finished `NetServer::serve` reported.
#[derive(Debug, Clone)]
pub struct Served {
    /// The drained joint outcome.
    pub outcome: Outcome,
    /// Connections accepted over the server's lifetime.
    pub connections: usize,
    /// Connections dropped for protocol violations.
    pub malformed: usize,
    /// Streams closed because their connection vanished.
    pub autoclosed: usize,
    /// Client and server shared one core (see [`OneCore`]).
    pub one_core: bool,
}

/// Which cores a socket leg may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cores {
    /// Client and server threads confined to one core: every measured leg.
    One,
    /// Wherever the kernel places them: the ladder's comparison leg.
    All,
}

/// Serve `svc` on a Unix-domain socket at `sock` from a scoped thread of
/// this process while `drive` runs on the calling thread.
///
/// Whatever `drive` does — return, fail a check, panic — the server is then
/// told to shut down (`shutdown_server` from a fresh connection, the stop
/// handle if even that fails), so the scope's join can never wait on a
/// server nobody will stop.
pub fn with_server<T>(
    svc: Svc<'_>,
    sock: &Path,
    tr: &Tracer,
    cores: Cores,
    drive: impl FnOnce(&Endpoint) -> Res<T>,
) -> Res<(Served, T)> {
    // Before the server thread exists: it and every thread it spawns
    // inherit the confinement.
    let pin = (cores == Cores::One).then(OneCore::pin);
    let one_core = pin.as_ref().is_some_and(OneCore::pinned);
    let server = NetServer::bind(ServerConfig {
        unix: Some(sock.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(err)?;
    let stop = server.handle();
    let ep = Endpoint::Unix(sock.to_path_buf());
    let service = svc.inner;
    std::thread::scope(|s| {
        let serve = s.spawn(move || server.serve(service));
        let driven = catch_unwind(AssertUnwindSafe(|| drive(&ep)));
        let asked = Client::connect(&ep, tr).and_then(|mut c| c.shutdown_server());
        if asked.is_err() {
            stop.stop();
        }
        let served = serve.join();
        let out = match driven {
            Ok(out) => out?,
            Err(panic) => resume_unwind(panic),
        };
        let report = served
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(err)?;
        Ok((
            Served {
                outcome: Outcome::of(&report.outcome),
                connections: report.connections,
                malformed: report.malformed,
                autoclosed: report.autoclosed_streams,
                one_core,
            },
            out,
        ))
    })
}

/// Counters of one `NetClient::push_batch`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PushInfo {
    /// Retryable rejections absorbed (backpressure, epoch barrier).
    pub retries: u64,
    /// Segments re-sent after a partial acceptance.
    pub refed_segs: u64,
}

/// A connected `NetClient`.
pub struct Client<'t> {
    inner: NetClient,
    tr: &'t Tracer,
}

impl<'t> Client<'t> {
    /// `NetClient::connect` with the default client configuration.
    pub fn connect(ep: &Endpoint, tr: &'t Tracer) -> Res<Self> {
        let t = tr.start("net.connect");
        let r = NetClient::connect(ep, NetClientConfig::default());
        tr.end(t);
        r.map(|inner| Self { inner, tr }).map_err(err)
    }

    /// `NetClient::open_stream` under the registered profile.
    pub fn open_stream(&mut self, name: &str) -> Res<u64> {
        let t = self.tr.start("net.open_stream");
        let r = self
            .inner
            .open_stream(PROFILE, name, IngestOptions::default());
        self.tr.end(t);
        r.map_err(err)
    }

    /// `NetClient::push_batch`: one `PushSegments` message per call unless
    /// the server pushes back.
    #[inline]
    pub fn push_batch(&mut self, stream: u64, segs: &[Segment]) -> Res<PushInfo> {
        let t = self.tr.start(if segs.len() == 1 {
            "net.push_batch.1seg"
        } else {
            "net.push_batch.nseg"
        });
        let r = self.inner.push_batch(stream, segs);
        self.tr.end(t);
        r.map(|s| PushInfo {
            retries: s.retries,
            refed_segs: s.refed_segments,
        })
        .map_err(err)
    }

    /// `NetClient::close_stream`.
    pub fn close_stream(&mut self, stream: u64) -> Res<()> {
        let t = self.tr.start("net.close_stream");
        let r = self.inner.close_stream(stream);
        self.tr.end(t);
        r.map_err(err)
    }

    /// `NetClient::stats` — a round trip that does no engine work.
    /// Returns the server's epoch counter.
    pub fn stats(&mut self) -> Res<u64> {
        let t = self.tr.start("net.stats");
        let r = self.inner.stats();
        self.tr.end(t);
        match r.map_err(err)? {
            Reply::Stats { epoch, .. } => Ok(epoch),
            other => Err(format!("expected Stats, got {other:?}")),
        }
    }

    /// `NetClient::get_metrics`.
    pub fn get_metrics(&mut self) -> Res<ObsView> {
        let t = self.tr.start("net.get_metrics");
        let r = self.inner.get_metrics();
        self.tr.end(t);
        r.map(ObsView).map_err(err)
    }

    /// `NetClient::shutdown_server`.
    pub fn shutdown_server(&mut self) -> Res<()> {
        let t = self.tr.start("net.shutdown_server");
        let r = self.inner.shutdown_server();
        self.tr.end(t);
        r.map_err(err)
    }
}

/// How a session took one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Accepted; this many segments were released and processed.
    Processed(usize),
    /// Behind the reorder watermark: rejected typed, traceless.
    Late,
}

/// A standalone `IngestSession` (ladder leg L0): it plans for itself.
pub struct Sess<'a> {
    inner: IngestSession<'a, dyn Workload + 'a>,
    tr: &'a Tracer,
}

impl<'a> Sess<'a> {
    /// `IngestSession::new`, optionally with a reorder gate.
    pub fn new(fx: &'a Fixture, seed: u64, reorder_window: Option<usize>, tr: &'a Tracer) -> Self {
        let options = IngestOptions {
            seed,
            reorder_window,
            ..IngestOptions::default()
        };
        Self {
            inner: IngestSession::new(&fx.model, fx.workload(), options),
            tr,
        }
    }

    /// `IngestSession::push`.
    #[inline]
    pub fn push(&mut self, seg: &Segment) -> Res<()> {
        let t = self.tr.start("session.push");
        let r = self.inner.push(seg);
        self.tr.end(t);
        r.map(|_| ()).map_err(err)
    }

    /// `IngestSession::push_arrival`.
    #[inline]
    pub fn push_arrival(&mut self, seg: &Segment) -> Res<Arrival> {
        let t = self.tr.start("session.push_arrival");
        let r = self.inner.push_arrival(seg);
        self.tr.end(t);
        match r {
            Ok(reports) => Ok(Arrival::Processed(reports.len())),
            Err(SkyError::LateSegment { .. }) => Ok(Arrival::Late),
            Err(e) => Err(err(e)),
        }
    }

    /// The session's current forecast (the joint LP's input).
    pub fn forecast(&self) -> Res<Vec<f64>> {
        self.inner.forecast_distribution().map_err(err)
    }

    /// `IngestSession::finish`.
    pub fn finish(self) -> StreamOut {
        StreamOut::of(&self.inner.finish())
    }
}

/// `Request::encode_push`.
pub fn encode_push(stream: u64, base_seq: u64, segs: &[Segment]) -> Vec<u8> {
    Request::encode_push(stream, base_seq, segs)
}

/// `Request::decode`; returns the segments a push carried.
pub fn decode_push(body: &[u8]) -> Res<usize> {
    match Request::decode(body)? {
        Request::PushSegments { segs, .. } => Ok(segs.len()),
        other => Err(format!("expected PushSegments, got {other:?}")),
    }
}

/// Encode and decode one `Accepted` reply; returns the body length.
pub fn reply_round_trip(stream: u64, from: u64, to: u64) -> Res<usize> {
    let body = Reply::Accepted { stream, from, to }.encode();
    match Reply::decode(&body)? {
        Reply::Accepted { .. } => Ok(body.len()),
        other => Err(format!("expected Accepted, got {other:?}")),
    }
}

/// The joint LP of one epoch barrier over `v` streams, rebuilt from public
/// pieces: forecasts captured from running sessions and the Eq. 8 budget.
pub struct JointLp<'a> {
    models: Vec<&'a FittedModel>,
    budget_per_seg_total: f64,
    basis: LpBasis,
}

impl<'a> JointLp<'a> {
    /// The LP a runtime provisioned like `spec` solves at each barrier.
    pub fn new(fx: &'a Fixture, spec: &RtSpec) -> Self {
        let v = spec.v as f64;
        let fair = (spec.total_cores(fx) / v).floor();
        let rounds = spec.epoch_segs(fx) as f64;
        let cloud = CostModel::default().cloud_usd_to_core_secs(SHARED_CLOUD_BUDGET_USD);
        Self {
            models: vec![&fx.model; spec.v],
            budget_per_seg_total: v * fair * fx.seg_len() + cloud / rounds,
            basis: LpBasis::new(),
        }
    }

    /// `joint_plan`: solve from scratch.
    pub fn solve_cold(&self, forecasts: &[Vec<f64>]) -> Res<usize> {
        joint_plan(&self.models, forecasts, self.budget_per_seg_total)
            .map(|plans| plans.len())
            .map_err(err)
    }

    /// `joint_plan_warm`: solve from the basis the previous call left.
    pub fn solve_warm(&mut self, forecasts: &[Vec<f64>]) -> Res<usize> {
        joint_plan_warm(
            &self.models,
            forecasts,
            self.budget_per_seg_total,
            &mut self.basis,
        )
        .map(|plans| plans.len())
        .map_err(err)
    }
}

/// A `KnobSwitcher` on the cheapest-configuration plan, for timing
/// `decide` alone.
pub struct Switcher<'a> {
    inner: KnobSwitcher,
    model: &'a FittedModel,
    limits: SwitcherLimits,
}

impl<'a> Switcher<'a> {
    /// `KnobSwitcher::new` with the limits a one-core fair share implies.
    pub fn new(fx: &'a Fixture) -> Self {
        let m = &fx.model;
        let plan = KnobPlan::single_config(m.n_categories(), m.n_configs(), m.cheapest());
        Self {
            inner: KnobSwitcher::new(m, plan),
            model: m,
            limits: SwitcherLimits {
                buffer_capacity: m.hardware.buffer_bytes,
                seg_bytes_reserve: fx.recs[0][0].bytes,
                capacity_per_seg: m.seg_len,
                safety: m.hyper.runtime_safety,
                cloud_enabled: true,
            },
        }
    }

    /// Categories the model distinguishes.
    pub fn categories(&self) -> usize {
        self.model.n_categories()
    }

    /// `KnobSwitcher::decide`; returns the chosen configuration.
    #[inline]
    pub fn decide(&mut self, category: usize, buffer_bytes: f64, backlog_work: f64) -> usize {
        self.inner
            .decide(
                self.model,
                category,
                buffer_bytes,
                backlog_work,
                SHARED_CLOUD_BUDGET_USD,
                &self.limits,
            )
            .config
    }
}
