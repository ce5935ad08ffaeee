//! Session-based streaming ingestion (§4, Appendix F, Appendix N.2).
//!
//! The paper's online phase is inherently incremental — `sky.process(frame,
//! state)` is called per arrival with explicit carried state. This module
//! models exactly that: an [`IngestSession`] owns all per-stream online
//! state (knob switcher, backlog, planner cadence, cloud-credit wallet,
//! drift detector, trace) and is fed one [`Segment`] at a time through
//! [`IngestSession::push`], which returns a [`StepReport`] describing every
//! decision taken for that segment. [`IngestSession::finish`] settles the
//! run into the same [`IngestOutcome`] the batch API reports.
//!
//! Per segment the session classifies the content category, lets the knob
//! switcher pick a configuration and placement, "executes" the resulting
//! task graph on the Appendix-M simulator, and settles the buffer/backlog
//! and cloud-credit accounting. Every planned interval it re-runs the knob
//! planner on a fresh forecast (unless the session is driven by an external
//! planner, e.g. the [`crate::runtime::IngestRuntime`]'s joint LP).
//!
//! The session exposes the feature gates the evaluation needs: buffering
//! and cloud bursting can be disabled independently (§5.4 ablation), the
//! classifier can be switched between *Standard*, *No-Type-B* and *Ground
//! truth* (§5.6, Fig. 15), and the forecast can come from the model, from
//! the ground truth, or be uniform (Fig. 14).
//!
//! ## Batch compatibility
//!
//! [`IngestSession::batch`] is the one-shot loop over a pre-materialized
//! stream. It pins the stream's byte statistics ([`StreamStats`]) and the
//! ground-truth category feed upfront — the two quantities the legacy batch
//! driver derived from the whole slice — so a hand-rolled `push` loop over
//! the same segments with the same pins produces a bitwise-identical
//! outcome (regression- and property-tested). A live session without pins
//! tracks both quantities incrementally and stays conservative instead of
//! clairvoyant; the throughput guarantee (Eq. 1) holds either way.
//!
//! ## Checkpoint / resume
//!
//! [`IngestSession::checkpoint`] snapshots the entire carried state
//! (including the RNG) into an owned [`SessionCheckpoint`];
//! [`IngestSession::resume`] re-attaches it to the fitted model and
//! workload. A resumed session continues bit-for-bit where the checkpoint
//! was taken.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vetl_sim::{simulate_into, Backlog, CostModel, SimScratch, TaskGraph, Trace, TracePoint};
use vetl_video::Segment;

use crate::dedupe::{self, DedupCache, DedupEntry, DedupKey, DedupPolicy, DedupStats};
use crate::error::SkyError;
use crate::fingerprint::Fnv;
use crate::offline::codec::{self, dec_opt, enc_opt, Dec, DecodeResult, Enc};
use crate::offline::forecast::{CategoryTimeline, Forecaster};
use crate::offline::FittedModel;
use crate::online::drift::DriftDetector;
use crate::online::plan::KnobPlan;
use crate::online::planner::plan_knobs;
use crate::online::switcher::{Decision, KnobSwitcher, SwitcherLimits};
use crate::workload::Workload;

/// How the current content category is determined (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassificationMode {
    /// Eq. 5 on the *previous* segment's reported quality (production mode;
    /// subject to Type-A and Type-B errors).
    #[default]
    Standard,
    /// Eq. 5 on the *current* segment's quality under the current
    /// configuration — eliminates the timing mismatch (Type-B) and leaves
    /// only Type-A errors (Fig. 15's "No Type-B errors" baseline).
    NoTypeB,
    /// Oracle: the ground-truth category (Fig. 15's "Ground truth").
    GroundTruth,
}

/// Where the planner's forecast comes from (Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForecastMode {
    /// The trained forecasting model (production mode).
    #[default]
    Model,
    /// Oracle: the actual category distribution of the upcoming interval.
    /// Requires a ground-truth feed ([`IngestSession::pin_ground_truth`],
    /// installed automatically by [`IngestSession::batch`]); a live session
    /// without one degrades to the trailing observed window.
    GroundTruth,
    /// A uniform distribution (ablation lower bound).
    Uniform,
}

/// Options for one ingestion session.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Allow setting video aside in the buffer (§5.4 gate 1b/1d).
    pub enable_buffering: bool,
    /// Allow cloud placements (§5.4 gate 1c/1d).
    pub enable_cloud: bool,
    /// Cloud credits granted per planned interval, dollars.
    pub cloud_budget_usd: f64,
    /// Category classification mode.
    pub classification: ClassificationMode,
    /// Forecast source.
    pub forecast: ForecastMode,
    /// Knob-switcher period in seconds (defaults to the fitted
    /// hyperparameter; clamped to ≥ one segment).
    pub switch_period_secs: Option<f64>,
    /// Cost conversions.
    pub cost_model: CostModel,
    /// RNG seed for reported-quality noise.
    pub seed: u64,
    /// Record a full trace (Fig. 3); summaries are always computed.
    pub record_trace: bool,
    /// Run the Appendix-E.2 drift detector over classification residuals.
    pub detect_drift: bool,
    /// Fine-tune the forecaster online at every replanning point (§3.3).
    pub finetune_forecaster: bool,
    /// Consult the cross-stream dedup cache before extraction
    /// ([`crate::dedupe`]). Exact mode (`tolerance == 0`) is bitwise
    /// invisible; tolerant mode short-circuits near-duplicates at zero
    /// charged cost. `None` disables dedup entirely.
    pub dedup: Option<DedupPolicy>,
    /// Out-of-order tolerance for the arrival path
    /// ([`IngestSession::push_arrival`] and the runtime's ingest front
    /// door): up to this many segments are held awaiting a gap before the
    /// watermark is forced past it (the skipped indices are declared lost,
    /// never silently dropped). Arrivals behind the watermark are rejected
    /// with typed [`SkyError::LateSegment`].
    /// `None` disables the gate entirely: every arrival is processed as-is
    /// and in-order runs are bitwise unchanged. `Some(w)` on in-order
    /// input is also bitwise identical to `None` — the gate only acts on
    /// actual reordering.
    pub reorder_window: Option<usize>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            enable_buffering: true,
            enable_cloud: true,
            cloud_budget_usd: 1.0,
            classification: ClassificationMode::Standard,
            forecast: ForecastMode::Model,
            switch_period_secs: None,
            cost_model: CostModel::default(),
            seed: 1234,
            record_trace: false,
            detect_drift: false,
            finetune_forecaster: false,
            dedup: None,
            reorder_window: None,
        }
    }
}

/// Outcome of an ingestion run.
#[derive(Debug, Clone, Default)]
pub struct IngestOutcome {
    /// Full trace (empty unless `record_trace`).
    pub trace: Trace,
    /// Mean ground-truth quality across segments (0–1).
    pub mean_quality: f64,
    /// Total on-premise work performed, core-seconds.
    pub work_core_secs: f64,
    /// Cloud dollars spent.
    pub cloud_usd: f64,
    /// Peak buffer fill in bytes.
    pub buffer_peak: f64,
    /// Throughput-guarantee violations (must be 0 for Skyscraper).
    pub overflows: usize,
    /// Knob switches performed.
    pub switches: usize,
    /// Fraction of segments whose category was misclassified w.r.t. the
    /// ground truth.
    pub misclassification_rate: f64,
    /// Times the knob planner ran.
    pub plans: usize,
    /// Segments processed.
    pub segments: usize,
    /// Stream duration covered, seconds.
    pub duration_secs: f64,
    /// Segments at which the drift alarm fired (0 unless `detect_drift`).
    pub drift_alarms: usize,
    /// Dedup counters (all zero unless [`IngestOptions::dedup`] was set).
    pub dedup: DedupStats,
}

impl IngestOutcome {
    /// Work rate in core-seconds per second of video.
    pub fn work_rate(&self) -> f64 {
        if self.duration_secs > 0.0 {
            self.work_core_secs / self.duration_secs
        } else {
            0.0
        }
    }
}

/// Byte-size statistics of a stream, used to size the buffer reserve.
///
/// The switcher's overflow projection keeps one worst-case segment of bytes
/// free per segment of backlog drain; the batch path measures that
/// worst case over the whole recording upfront, while a live session grows
/// it as segments arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Mean segment size over (up to) the first 100 segments, bytes.
    pub seg_bytes_mean: f64,
    /// Worst-case segment size, bytes (floored at the mean).
    pub seg_bytes_max: f64,
}

impl StreamStats {
    /// Measure a pre-materialized stream — the exact statistics the batch
    /// ingestion path pins at the start of a run.
    pub fn from_segments(segments: &[Segment]) -> Self {
        let seg_bytes_mean = segments.iter().take(100).map(|s| s.bytes).sum::<f64>()
            / segments.len().clamp(1, 100) as f64;
        let seg_bytes_max = segments
            .iter()
            .map(|s| s.bytes)
            .fold(seg_bytes_mean, f64::max);
        Self {
            seg_bytes_mean,
            seg_bytes_max,
        }
    }
}

/// How the session learns the stream's byte statistics.
#[derive(Debug, Clone)]
enum ByteStats {
    /// Pinned upfront (batch path / caller-provided prior).
    Pinned(StreamStats),
    /// Grown incrementally from arrivals (live session).
    Running { sum: f64, count: usize, max: f64 },
}

impl ByteStats {
    fn observe(&mut self, bytes: f64) {
        if let ByteStats::Running { sum, count, max } = self {
            if *count < 100 {
                *sum += bytes;
                *count += 1;
            }
            *max = max.max(bytes);
        }
    }

    fn current(&self) -> StreamStats {
        match self {
            ByteStats::Pinned(s) => *s,
            ByteStats::Running { sum, count, max } => {
                let mean = sum / (*count).max(1) as f64;
                StreamStats {
                    seg_bytes_mean: mean,
                    seg_bytes_max: max.max(mean),
                }
            }
        }
    }
}

/// Everything the session decided and observed for one pushed segment.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// 0-based index of the segment within the session.
    pub seg_index: usize,
    /// Segment start time, stream seconds.
    pub t_secs: f64,
    /// Content category the decision was made for.
    pub category: usize,
    /// Chosen configuration index.
    pub config: usize,
    /// Chosen placement index within the configuration's Pareto set.
    pub placement: usize,
    /// The buffer/budget checks forced a deviation from the plan.
    pub deviated: bool,
    /// The configuration changed relative to the previous segment.
    pub switched: bool,
    /// The knob planner ran before this segment.
    pub replanned: bool,
    /// Buffer fill after settling this segment, bytes.
    pub buffer_bytes: f64,
    /// Outstanding backlog work after settling, core-seconds.
    pub backlog_work: f64,
    /// Cloud dollars spent on this segment.
    pub cloud_usd_step: f64,
    /// Cloud credits remaining in the wallet.
    pub cloud_credits_left: f64,
    /// Work performed for this segment (on-premise + cloud), core-seconds.
    pub work_core_secs: f64,
    /// The quality metric the workload reported for this segment.
    pub reported_quality: f64,
    /// This segment violated the throughput guarantee (Eq. 1).
    pub overflowed: bool,
    /// The drift detector fired on this segment.
    pub drift_alarm: bool,
}

/// An owned snapshot of a session's carried state (plus the options it ran
/// under). Produced by [`IngestSession::checkpoint`], consumed by
/// [`IngestSession::resume`].
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    options: IngestOptions,
    state: SessionState,
}

impl SessionCheckpoint {
    /// Segments the checkpointed session had processed.
    pub fn segments_pushed(&self) -> usize {
        self.state.seg_index
    }

    /// Options the checkpointed session ran under.
    pub fn options(&self) -> &IngestOptions {
        &self.options
    }

    /// Serialize the whole carried state (RNG words included) with the
    /// knowledge-base codec. `decode(encode(c))` rebuilds a checkpoint whose
    /// resumed session continues bit-for-bit — the primitive behind the
    /// runtime WAL's durable snapshots.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_options(&mut e, &self.options);
        enc_state(&mut e, &self.state);
        e.into_bytes()
    }

    /// Decode a checkpoint serialized with [`encode`](Self::encode).
    /// Structural corruption degrades into a decode error, never a panic;
    /// model-dependent invariants are checked by
    /// [`validate_against`](Self::validate_against).
    pub fn decode(bytes: &[u8]) -> DecodeResult<Self> {
        let mut d = Dec::new(bytes);
        let options = dec_options(&mut d)?;
        let state = dec_state(&mut d)?;
        codec::expect_finished(&d, "session checkpoint")?;
        Ok(Self { options, state })
    }

    /// Cross-check the decoded state against the model it will resume on:
    /// category/config indices in bounds, plan shapes matching. A
    /// checksum-valid but crafted snapshot must fail here instead of
    /// panicking mid-push.
    pub fn validate_against(&self, model: &crate::offline::FittedModel) -> DecodeResult<()> {
        let n_c = model.n_categories();
        let n_k = model.n_configs();
        let s = &self.state;
        if s.history.iter().chain(&s.gt_history).any(|&c| c >= n_c)
            || s.gt_feed
                .as_ref()
                .is_some_and(|f| f.iter().any(|&c| c >= n_c))
        {
            return Err("checkpoint category history out of range".into());
        }
        if let Some(sw) = &s.switcher {
            let (plan, _, _) = sw.parts();
            if plan.n_categories() != n_c || plan.n_configs() != n_k {
                return Err("checkpoint plan shape does not match the model".into());
            }
        }
        if let Some(d) = &s.decision {
            if d.config >= n_k
                || d.category >= n_c
                || d.placement >= model.configs[d.config].placements.len()
            {
                return Err("checkpoint decision out of range".into());
            }
        }
        if s.prev_config != usize::MAX && s.prev_config >= n_k {
            return Err("checkpoint prev_config out of range".into());
        }
        if let Some(f) = &s.tuned_forecaster {
            if f.n_categories() != n_c {
                return Err("checkpoint forecaster category count mismatch".into());
            }
        }
        let entry_in_range = |e: &crate::dedupe::DedupEntry| {
            e.gt_category < n_c
                && e.config < n_k
                && e.placement < model.configs[e.config].placements.len()
        };
        if !s.dedup_pending.iter().all(|(_, e)| entry_in_range(e))
            || !s
                .dedup_own
                .as_ref()
                .is_none_or(|c| c.sorted_entries().iter().all(|(_, e)| entry_in_range(e)))
        {
            return Err("checkpoint dedup entry out of range".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Checkpoint codec (little-endian, floats as raw bits — the same format
// discipline as the knowledge base, so snapshots survive bitwise).
// ---------------------------------------------------------------------

pub(crate) fn enc_trace(e: &mut Enc, t: &Trace) {
    e.usize(t.len());
    for p in t.points() {
        e.f64(p.t_secs);
        e.f64(p.quality);
        e.f64(p.work_rate);
        e.f64(p.buffer_bytes);
        e.f64(p.cloud_usd);
        e.usize(p.config);
        e.usize(p.category);
    }
}

pub(crate) fn dec_trace(d: &mut Dec) -> DecodeResult<Trace> {
    let n = d.len(7 * 8, "trace points")?;
    let mut trace = Trace::new();
    let mut prev_t = f64::NEG_INFINITY;
    for _ in 0..n {
        let p = TracePoint {
            t_secs: d.f64("trace t_secs")?,
            quality: d.f64("trace quality")?,
            work_rate: d.f64("trace work_rate")?,
            buffer_bytes: d.f64("trace buffer_bytes")?,
            cloud_usd: d.f64("trace cloud_usd")?,
            config: d.usize("trace config")?,
            category: d.usize("trace category")?,
        };
        // Trace::push debug-asserts time order; a crafted snapshot must
        // fail typed here instead.
        if p.t_secs.is_nan() || p.t_secs < prev_t {
            return Err("trace points out of time order".into());
        }
        prev_t = p.t_secs;
        trace.push(p);
    }
    Ok(trace)
}

pub(crate) fn enc_outcome(e: &mut Enc, o: &IngestOutcome) {
    enc_trace(e, &o.trace);
    e.f64(o.mean_quality);
    e.f64(o.work_core_secs);
    e.f64(o.cloud_usd);
    e.f64(o.buffer_peak);
    e.usize(o.overflows);
    e.usize(o.switches);
    e.f64(o.misclassification_rate);
    e.usize(o.plans);
    e.usize(o.segments);
    e.f64(o.duration_secs);
    e.usize(o.drift_alarms);
    dedupe::enc_stats(e, &o.dedup);
}

pub(crate) fn dec_outcome(d: &mut Dec) -> DecodeResult<IngestOutcome> {
    Ok(IngestOutcome {
        trace: dec_trace(d)?,
        mean_quality: d.f64("outcome mean_quality")?,
        work_core_secs: d.f64("outcome work_core_secs")?,
        cloud_usd: d.f64("outcome cloud_usd")?,
        buffer_peak: d.f64("outcome buffer_peak")?,
        overflows: d.usize("outcome overflows")?,
        switches: d.usize("outcome switches")?,
        misclassification_rate: d.f64("outcome misclassification_rate")?,
        plans: d.usize("outcome plans")?,
        segments: d.usize("outcome segments")?,
        duration_secs: d.f64("outcome duration_secs")?,
        drift_alarms: d.usize("outcome drift_alarms")?,
        dedup: dedupe::dec_stats(d)?,
    })
}

pub(crate) fn enc_options(e: &mut Enc, o: &IngestOptions) {
    e.bool(o.enable_buffering);
    e.bool(o.enable_cloud);
    e.f64(o.cloud_budget_usd);
    e.u8(match o.classification {
        ClassificationMode::Standard => 0,
        ClassificationMode::NoTypeB => 1,
        ClassificationMode::GroundTruth => 2,
    });
    e.u8(match o.forecast {
        ForecastMode::Model => 0,
        ForecastMode::GroundTruth => 1,
        ForecastMode::Uniform => 2,
    });
    enc_opt(e, &o.switch_period_secs, |e, v| e.f64(*v));
    e.f64(o.cost_model.onprem_usd_per_core_hour);
    e.f64(o.cost_model.cloud_onprem_ratio);
    e.u64(o.seed);
    e.bool(o.record_trace);
    e.bool(o.detect_drift);
    e.bool(o.finetune_forecaster);
    enc_opt(e, &o.dedup, dedupe::enc_policy);
    enc_opt(e, &o.reorder_window, |e, v| e.usize(*v));
}

pub(crate) fn dec_options(d: &mut Dec) -> DecodeResult<IngestOptions> {
    Ok(IngestOptions {
        enable_buffering: d.bool("options enable_buffering")?,
        enable_cloud: d.bool("options enable_cloud")?,
        cloud_budget_usd: d.f64("options cloud_budget_usd")?,
        classification: match d.u8("options classification")? {
            0 => ClassificationMode::Standard,
            1 => ClassificationMode::NoTypeB,
            2 => ClassificationMode::GroundTruth,
            v => return Err(format!("unknown classification tag {v}")),
        },
        forecast: match d.u8("options forecast")? {
            0 => ForecastMode::Model,
            1 => ForecastMode::GroundTruth,
            2 => ForecastMode::Uniform,
            v => return Err(format!("unknown forecast tag {v}")),
        },
        switch_period_secs: dec_opt(d, "options switch_period", |d| d.f64("switch_period"))?,
        cost_model: CostModel {
            onprem_usd_per_core_hour: d.f64("options onprem_usd_per_core_hour")?,
            cloud_onprem_ratio: d.f64("options cloud_onprem_ratio")?,
        },
        seed: d.u64("options seed")?,
        record_trace: d.bool("options record_trace")?,
        detect_drift: d.bool("options detect_drift")?,
        finetune_forecaster: d.bool("options finetune_forecaster")?,
        dedup: dec_opt(d, "options dedup", dedupe::dec_policy)?,
        reorder_window: dec_opt(d, "options reorder_window", |d| d.usize("reorder_window"))?,
    })
}

fn enc_state(e: &mut Enc, s: &SessionState) {
    for w in s.rng.state_words() {
        e.u64(w);
    }
    enc_opt(e, &s.switcher, |e, sw| {
        let (plan, usage, cur) = sw.parts();
        codec::enc_plan(e, plan);
        e.usize(usage.len());
        for row in usage {
            e.f64s(row);
        }
        e.usize(cur);
    });
    let entries: Vec<(f64, f64)> = s.backlog.entries().collect();
    e.usize(entries.len());
    for (b, w) in &entries {
        e.f64(*b);
        e.f64(*w);
    }
    let (tb, tw) = s.backlog.raw_totals();
    e.f64(tb);
    e.f64(tw);
    e.usizes(&s.history);
    e.usizes(&s.gt_history);
    enc_opt(e, &s.gt_feed, |e, v| e.usizes(v));
    match &s.byte_stats {
        ByteStats::Pinned(st) => {
            e.u8(0);
            e.f64(st.seg_bytes_mean);
            e.f64(st.seg_bytes_max);
        }
        ByteStats::Running { sum, count, max } => {
            e.u8(1);
            e.f64(*sum);
            e.usize(*count);
            e.f64(*max);
        }
    }
    enc_opt(e, &s.drift, |e, det| {
        let (threshold, window, alarm_fraction, history, far_count, alarms) = det.parts();
        e.f64(threshold);
        e.usize(window);
        e.f64(alarm_fraction);
        e.usize(history.len());
        for far in &history {
            e.bool(*far);
        }
        e.usize(far_count);
        e.usize(alarms);
    });
    enc_opt(e, &s.tuned_forecaster, codec::enc_forecaster);
    enc_trace(e, &s.trace);
    enc_opt(e, &s.decision, |e, d| {
        e.usize(d.config);
        e.usize(d.placement);
        e.usize(d.category);
        e.bool(d.deviated);
    });
    enc_opt(e, &s.last_reported, |e, v| e.f64(*v));
    e.u64(s.prev_config as u64);
    e.usize(s.seg_index);
    e.f64(s.cloud_left);
    e.f64(s.cloud_spent_total);
    e.f64(s.work_total);
    e.f64(s.quality_total);
    e.f64(s.buffer_peak);
    e.usize(s.overflows);
    e.usize(s.misclassified);
    e.usize(s.switches);
    e.usize(s.plans);
    e.usize(s.drift_alarms);
    e.bool(s.external_planning);
    enc_opt(e, &s.capacity_override, |e, v| e.f64(*v));
    dedupe::enc_pending(e, &s.dedup_pending);
    dedupe::enc_stats(e, &s.dedup_stats);
    enc_opt(e, &s.dedup_own, |e, c| dedupe::enc_cache(e, c));
    enc_opt(e, &s.gate, enc_reorder_gate);
}

fn dec_state(d: &mut Dec) -> DecodeResult<SessionState> {
    let mut words = [0u64; 4];
    for w in &mut words {
        *w = d.u64("state rng word")?;
    }
    let rng = StdRng::from_state_words(words);
    let switcher = dec_opt(d, "state switcher", |d| {
        let plan = codec::dec_plan(d)?;
        let n = d.len(8, "state usage rows")?;
        let usage = (0..n)
            .map(|_| d.f64s("state usage row"))
            .collect::<DecodeResult<Vec<_>>>()?;
        let cur = d.usize("state cur_config")?;
        KnobSwitcher::from_parts(plan, usage, cur)
            .ok_or_else(|| "inconsistent switcher snapshot".to_string())
    })?;
    let n = d.len(16, "state backlog entries")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let bytes = d.f64("state backlog bytes")?;
        let work = d.f64("state backlog work")?;
        if !(bytes >= 0.0 && work >= 0.0) {
            return Err("negative or NaN backlog entry".into());
        }
        entries.push((bytes, work));
    }
    let raw_totals = (
        d.f64("state backlog total_bytes")?,
        d.f64("state backlog total_work")?,
    );
    let backlog = Backlog::from_parts(entries, raw_totals);
    let history = d.usizes("state history")?;
    let gt_history = d.usizes("state gt_history")?;
    let gt_feed = dec_opt(d, "state gt_feed", |d| d.usizes("state gt_feed"))?;
    let byte_stats = match d.u8("state byte_stats tag")? {
        0 => ByteStats::Pinned(StreamStats {
            seg_bytes_mean: d.f64("state seg_bytes_mean")?,
            seg_bytes_max: d.f64("state seg_bytes_max")?,
        }),
        1 => ByteStats::Running {
            sum: d.f64("state bytes sum")?,
            count: d.usize("state bytes count")?,
            max: d.f64("state bytes max")?,
        },
        v => return Err(format!("unknown byte_stats tag {v}")),
    };
    let drift = dec_opt(d, "state drift", |d| {
        let threshold = d.f64("drift threshold")?;
        let window = d.usize("drift window")?;
        let alarm_fraction = d.f64("drift alarm_fraction")?;
        let n = d.len(1, "drift history")?;
        let history = (0..n)
            .map(|_| d.bool("drift far flag"))
            .collect::<DecodeResult<Vec<_>>>()?;
        let far_count = d.usize("drift far_count")?;
        let alarms = d.usize("drift alarms")?;
        DriftDetector::from_parts(
            threshold,
            window,
            alarm_fraction,
            history,
            far_count,
            alarms,
        )
        .ok_or_else(|| "inconsistent drift snapshot".to_string())
    })?;
    let tuned_forecaster = dec_opt(d, "state forecaster", codec::dec_forecaster)?;
    let trace = dec_trace(d)?;
    let decision = dec_opt(d, "state decision", |d| {
        Ok(Decision {
            config: d.usize("decision config")?,
            placement: d.usize("decision placement")?,
            category: d.usize("decision category")?,
            deviated: d.bool("decision deviated")?,
        })
    })?;
    let last_reported = dec_opt(d, "state last_reported", |d| d.f64("last_reported"))?;
    let prev_config = d.u64("state prev_config")? as usize;
    let seg_index = d.usize("state seg_index")?;
    let cloud_left = d.f64("state cloud_left")?;
    let cloud_spent_total = d.f64("state cloud_spent_total")?;
    let work_total = d.f64("state work_total")?;
    let quality_total = d.f64("state quality_total")?;
    let buffer_peak = d.f64("state buffer_peak")?;
    let overflows = d.usize("state overflows")?;
    let misclassified = d.usize("state misclassified")?;
    let switches = d.usize("state switches")?;
    let plans = d.usize("state plans")?;
    let drift_alarms = d.usize("state drift_alarms")?;
    let external_planning = d.bool("state external_planning")?;
    let capacity_override = dec_opt(d, "state capacity_override", |d| d.f64("capacity_override"))?;
    let dedup_pending = dedupe::dec_pending(d)?;
    let dedup_pending_idx = dedup_pending
        .iter()
        .enumerate()
        .map(|(i, (k, _))| (*k, i))
        .collect();
    let dedup_stats = dedupe::dec_stats(d)?;
    let dedup_own = dec_opt(d, "state dedup cache", |d| {
        dedupe::dec_cache(d).map(Box::new)
    })?;
    let gate = dec_opt(d, "state reorder gate", dec_reorder_gate)?;
    Ok(SessionState {
        rng,
        switcher,
        backlog,
        history,
        gt_history,
        gt_feed,
        byte_stats,
        drift,
        tuned_forecaster,
        trace,
        decision,
        last_reported,
        prev_config,
        seg_index,
        cloud_left,
        cloud_spent_total,
        work_total,
        quality_total,
        buffer_peak,
        overflows,
        misclassified,
        switches,
        plans,
        drift_alarms,
        external_planning,
        capacity_override,
        dedup_pending,
        dedup_pending_idx,
        dedup_stats,
        dedup_own,
        gate,
    })
}

/// The mutable, checkpointable part of a session.
#[derive(Debug, Clone)]
struct SessionState {
    rng: StdRng,
    /// `None` until the first plan is computed (lazily on first push) or
    /// installed ([`IngestSession::install_plan`]).
    switcher: Option<KnobSwitcher>,
    backlog: Backlog,
    /// Observed category history, seeded with the offline tail — the
    /// forecaster's input. Only its newest [`forecast_window`] entries,
    /// plus at most an eighth, are kept (see [`push_window`]), except by a
    /// standalone session that fine-tunes its forecaster: its replans train
    /// on all of it.
    history: Vec<usize>,
    /// Ground-truth categories of the newest processed segments, kept only
    /// under [`ForecastMode::GroundTruth`] (its no-feed fallback reads the
    /// last planned interval of them) and empty in every other mode.
    gt_history: Vec<usize>,
    /// Full ground-truth category feed pinned upfront (oracle modes).
    gt_feed: Option<Vec<usize>>,
    byte_stats: ByteStats,
    drift: Option<DriftDetector>,
    tuned_forecaster: Option<Forecaster>,
    trace: Trace,
    decision: Option<Decision>,
    last_reported: Option<f64>,
    prev_config: usize,
    seg_index: usize,
    cloud_left: f64,
    cloud_spent_total: f64,
    work_total: f64,
    quality_total: f64,
    buffer_peak: f64,
    overflows: usize,
    misclassified: usize,
    switches: usize,
    plans: usize,
    drift_alarms: usize,
    /// Planning is driven externally (multi-stream server): the session
    /// never re-runs its own planner and never refills its own wallet.
    external_planning: bool,
    /// Cluster core-seconds retired per segment interval, when the caller
    /// allocates a share of a cluster (multi-stream fair share) instead of
    /// the model's full provisioning.
    capacity_override: Option<f64>,
    /// Dedup entries recorded since the last publication, in recording
    /// order — visible to this session immediately, merged into the shared
    /// (or own) cache only at an epoch barrier.
    dedup_pending: Vec<(DedupKey, DedupEntry)>,
    /// Key → index into `dedup_pending` (kept in lockstep; rebuilt on
    /// decode) so own-pending lookups stay O(1).
    dedup_pending_idx: HashMap<DedupKey, usize>,
    /// Per-stream dedup counters, settled into the outcome.
    dedup_stats: DedupStats,
    /// Private cache of a standalone (internally planned) session, whose
    /// interval replans are its epoch barriers. Externally planned sessions
    /// leave this `None` — the server/runtime injects its shared cache per
    /// push instead.
    dedup_own: Option<Box<DedupCache>>,
    /// Out-of-order arrival gate ([`IngestOptions::reorder_window`]).
    /// `None` when the window is disabled; lives in the checkpointed state
    /// so held segments and the watermark survive checkpoint/resume.
    gate: Option<ReorderGate>,
}

impl SessionState {
    /// Record (or overwrite, latest-wins) a pending dedup entry.
    fn record_dedup_pending(&mut self, key: DedupKey, entry: DedupEntry) {
        match self.dedup_pending_idx.get(&key) {
            Some(&ix) => self.dedup_pending[ix].1 = entry,
            None => {
                self.dedup_pending_idx.insert(key, self.dedup_pending.len());
                self.dedup_pending.push((key, entry));
            }
        }
    }

    /// Drain the pending list for publication (clears the index too).
    fn take_dedup_pending(&mut self) -> Vec<(DedupKey, DedupEntry)> {
        self.dedup_pending_idx.clear();
        std::mem::take(&mut self.dedup_pending)
    }
}

/// Counters for the out-of-order arrival gate, settled per stream. These
/// describe only *accepted* arrivals (holds and forced-advance losses);
/// late rejections happen before any state change and are deliberately not
/// tracked here — a rejected arrival must leave no trace in checkpointable
/// state, or recovery (which never sees rejected arrivals) would diverge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Arrivals that were held (arrived ahead of the watermark).
    pub held_events: u64,
    /// Peak number of simultaneously held segments.
    pub held_peak: usize,
    /// Segment indices skipped by forced watermark advances — gaps that
    /// were declared lost when the hold window filled, plus gaps released
    /// at session close.
    pub lost: u64,
}

/// Bounded reorder buffer in front of the ingest path.
///
/// The gate anchors its watermark at the first arrival's index, releases
/// in-order arrivals immediately, holds ahead-of-watermark arrivals (up to
/// `window` of them), and rejects behind-the-watermark arrivals with
/// [`SkyError::LateSegment`] *before* any state changes. When more than
/// `window` segments are held, the watermark is forced past the oldest gap
/// and the skipped indices are counted in [`ReorderStats::lost`] — never a
/// panic, never a silent drop. On in-order input the gate passes every
/// segment straight through and its state stays trivial, which is why
/// enabling a window on a clean link is bitwise identical to disabling it.
#[derive(Debug, Clone)]
struct ReorderGate {
    window: usize,
    /// Next index the downstream pipeline expects. Meaningless until
    /// `anchored`.
    expected: u64,
    anchored: bool,
    /// Held segments, sorted by index, no duplicates. At most
    /// `window` entries after every `admit`.
    held: Vec<Segment>,
    stats: ReorderStats,
}

impl ReorderGate {
    fn new(window: usize) -> Self {
        Self {
            window,
            expected: 0,
            anchored: false,
            held: Vec::new(),
            stats: ReorderStats::default(),
        }
    }

    /// Would this arrival be rejected? Pure — safe to call before
    /// journaling. Late means behind the watermark, or a duplicate of a
    /// held index; index `u64::MAX` is refused outright because releasing
    /// it would advance the watermark past the end of the index space.
    fn check(&self, seg: &Segment) -> Result<(), SkyError> {
        if seg.index == u64::MAX {
            return Err(SkyError::InvalidInput {
                what: "segment index u64::MAX cannot pass a reorder gate",
            });
        }
        let late = self.anchored
            && (seg.index < self.expected || self.held.iter().any(|h| h.index == seg.index));
        if late {
            return Err(SkyError::LateSegment {
                index: seg.index,
                expected: self.expected,
                window: self.window,
            });
        }
        Ok(())
    }

    /// Admit an arrival that passed [`check`](Self::check) and return the
    /// segments released for processing, in index order.
    fn admit(&mut self, seg: Segment) -> Vec<Segment> {
        if !self.anchored {
            // Anchor lazily at the first arrival so a stream whose numbering
            // starts anywhere (e.g. resumed mid-stream) works unchanged.
            self.anchored = true;
            self.expected = seg.index;
        }
        let mut released = Vec::new();
        if seg.index == self.expected {
            self.expected += 1;
            released.push(seg);
        } else {
            debug_assert!(seg.index > self.expected);
            let at = self.held.partition_point(|h| h.index < seg.index);
            self.held.insert(at, seg);
            self.stats.held_events += 1;
            self.stats.held_peak = self.stats.held_peak.max(self.held.len());
        }
        loop {
            if self.held.first().is_some_and(|h| h.index == self.expected) {
                let h = self.held.remove(0);
                self.expected += 1;
                released.push(h);
            } else if self.held.len() > self.window {
                // Window full: force the watermark past the oldest gap and
                // declare the skipped indices lost.
                let front = self.held.remove(0);
                self.stats.lost += front.index - self.expected;
                self.expected = front.index + 1;
                released.push(front);
            } else {
                break;
            }
        }
        released
    }

    /// Release everything still held, in index order, declaring remaining
    /// gaps lost. Used at close/finish so accepted segments are never
    /// dropped.
    fn drain_all(&mut self) -> Vec<Segment> {
        let mut released = Vec::new();
        for h in std::mem::take(&mut self.held) {
            self.stats.lost += h.index - self.expected;
            self.expected = h.index + 1;
            released.push(h);
        }
        released
    }
}

fn enc_reorder_gate(e: &mut Enc, g: &ReorderGate) {
    e.usize(g.window);
    e.u64(g.expected);
    e.bool(g.anchored);
    e.usize(g.held.len());
    for seg in &g.held {
        crate::runtime::wal::enc_segment(e, seg);
    }
    e.u64(g.stats.held_events);
    e.usize(g.stats.held_peak);
    e.u64(g.stats.lost);
}

fn dec_reorder_gate(d: &mut Dec) -> DecodeResult<ReorderGate> {
    let window = d.usize("gate window")?;
    let expected = d.u64("gate expected")?;
    let anchored = d.bool("gate anchored")?;
    let n = d.len(8, "gate held")?;
    let held = (0..n)
        .map(|_| crate::runtime::wal::dec_segment(d))
        .collect::<DecodeResult<Vec<_>>>()?;
    let stats = ReorderStats {
        held_events: d.u64("gate held_events")?,
        held_peak: d.usize("gate held_peak")?,
        lost: d.u64("gate lost")?,
    };
    Ok(ReorderGate {
        window,
        expected,
        anchored,
        held,
        stats,
    })
}

/// Reusable hot-path buffers. Pure derived data — rebuilt from scratch on
/// resume and deliberately **not** part of [`SessionCheckpoint`] — so the
/// steady per-segment path (task graph, simulator arrays, ground-truth
/// quality vector) never touches the allocator. Dropping or re-priming the
/// scratch never changes a bit of any output.
#[derive(Debug, Clone, Default)]
struct HotScratch {
    /// One cached task graph per knob configuration:
    /// [`Workload::task_graph_into`] overwrites the node costs in place.
    graphs: Vec<TaskGraph>,
    /// Simulator finish/scheduled/core arrays ([`simulate_into`]).
    sim: SimScratch,
    /// Ground-truth quality vector
    /// ([`FittedModel::ground_truth_category_with`]).
    qualities: Vec<f64>,
}

/// A streaming ingestion session over one fitted stream.
///
/// Feed segments as they arrive with [`push`](Self::push), inspect each
/// [`StepReport`], and settle with [`finish`](Self::finish). See the
/// [module docs](self) for the batch-compatibility and checkpoint
/// contracts.
pub struct IngestSession<'a, W: Workload + ?Sized> {
    model: &'a FittedModel,
    workload: &'a W,
    options: IngestOptions,
    state: SessionState,
    scratch: HotScratch,
    /// Dedup key scope (model + workload fingerprint) — derived, computed
    /// once at construction; 0 when dedup is disabled.
    dedup_scope: u64,
    /// Observability attachment, shared with the owning runtime. Like the
    /// [`HotScratch`], this is derived wiring: never checkpointed, never
    /// consulted by a decision, re-attached on resume. `None` = recording
    /// off (zero obs work on the push path).
    obs: Option<std::sync::Arc<crate::obs::Obs>>,
}

/// The dedup key scope: cached results are only answers to the *same*
/// extraction question, so keys bind the model and workload identities.
fn dedup_scope<W: Workload + ?Sized>(
    model: &FittedModel,
    workload: &W,
    options: &IngestOptions,
) -> u64 {
    if options.dedup.is_none() {
        return 0;
    }
    Fnv::new()
        .eat(model.fingerprint())
        .eat(workload.fingerprint())
        .finish()
}

/// Segments of observed history the forecaster reads: its input span
/// `t_in`, as the hyperparameters and as the fitted forecaster state it,
/// and never fewer than one segment per input split (the span `featurize`
/// counts back over). The session reads and retains exactly this window,
/// so trimming the history can never change a forecast.
fn forecast_window(model: &FittedModel) -> usize {
    let segs = |secs: f64| (secs / model.seg_len).round() as usize;
    let spec = model.forecaster.spec();
    segs(model.hyper.forecast_input_secs)
        .max(segs(spec.input_secs))
        .max(spec.input_splits)
}

/// Append `c` to a category window that must keep its newest `keep`
/// entries. Amortized: when the length reaches `keep + keep/8` the front is
/// drained down to `keep`, once per `keep/8` pushes, and that capacity is
/// reserved once, so the steady state allocates nothing. A longer list (a
/// checkpoint written before retention was bounded) is cut down to `keep`
/// on its first push.
fn push_window(window: &mut Vec<usize>, c: usize, keep: usize) {
    let keep = keep.max(1);
    let cap = keep + (keep / 8).max(1);
    if window.capacity() != cap {
        if window.len() >= cap {
            window.drain(..window.len() - keep);
        }
        window.shrink_to(cap);
        window.reserve_exact(cap - window.len());
    }
    window.push(c);
    if window.len() >= cap {
        window.drain(..window.len() - keep);
    }
}

impl<'a, W: Workload + ?Sized> IngestSession<'a, W> {
    /// Open a live session: byte statistics are learned from arrivals and
    /// planning is internal (the planner re-runs every planned interval).
    pub fn new(model: &'a FittedModel, workload: &'a W, options: IngestOptions) -> Self {
        Self::build(
            model,
            workload,
            options,
            ByteStats::Running {
                sum: 0.0,
                count: 0,
                max: 0.0,
            },
            false,
        )
    }

    /// Open a session with pinned stream statistics — the batch path, or a
    /// live caller with a trustworthy prior on segment sizes.
    pub fn with_stream_stats(
        model: &'a FittedModel,
        workload: &'a W,
        options: IngestOptions,
        stats: StreamStats,
    ) -> Self {
        Self::build(model, workload, options, ByteStats::Pinned(stats), false)
    }

    /// Open a session whose planning is driven externally: the session never
    /// re-plans or refills its own wallet. The caller must
    /// [`install_plan`](Self::install_plan) before the first push and manage
    /// credits via [`set_cloud_credits`](Self::set_cloud_credits) — this is
    /// the contract the [`crate::runtime::IngestRuntime`] uses.
    pub fn external(model: &'a FittedModel, workload: &'a W, options: IngestOptions) -> Self {
        Self::build(
            model,
            workload,
            options,
            ByteStats::Running {
                sum: 0.0,
                count: 0,
                max: 0.0,
            },
            true,
        )
    }

    fn build(
        model: &'a FittedModel,
        workload: &'a W,
        options: IngestOptions,
        byte_stats: ByteStats,
        external_planning: bool,
    ) -> Self {
        let state = SessionState {
            rng: StdRng::seed_from_u64(options.seed),
            switcher: None,
            backlog: Backlog::new(),
            history: model.tail.categories.clone(),
            gt_history: Vec::new(),
            gt_feed: None,
            byte_stats,
            drift: options
                .detect_drift
                .then(|| DriftDetector::for_model(model)),
            tuned_forecaster: options
                .finetune_forecaster
                .then(|| model.forecaster.clone()),
            trace: Trace::new(),
            decision: None,
            last_reported: None,
            prev_config: usize::MAX,
            seg_index: 0,
            cloud_left: options.cloud_budget_usd,
            cloud_spent_total: 0.0,
            work_total: 0.0,
            quality_total: 0.0,
            buffer_peak: 0.0,
            overflows: 0,
            misclassified: 0,
            switches: 0,
            plans: 0,
            drift_alarms: 0,
            external_planning,
            capacity_override: None,
            dedup_pending: Vec::new(),
            dedup_pending_idx: HashMap::new(),
            dedup_stats: DedupStats::default(),
            // Standalone sessions own a private cache; externally planned
            // sessions are fed the server/runtime's shared cache per push.
            dedup_own: options
                .dedup
                .filter(|_| !external_planning)
                .map(|p| Box::new(DedupCache::new(p))),
            gate: options.reorder_window.map(ReorderGate::new),
        };
        Self {
            dedup_scope: dedup_scope(model, workload, &options),
            model,
            workload,
            options,
            state,
            scratch: HotScratch::default(),
            obs: None,
        }
    }

    /// One-shot ingestion of a pre-materialized stream: pins the stream's
    /// byte statistics and ground-truth feed, pushes every segment, and
    /// settles. This is the legacy batch driver, expressed as one loop over
    /// a session.
    pub fn batch(
        model: &'a FittedModel,
        workload: &'a W,
        options: IngestOptions,
        segments: &[Segment],
    ) -> Result<IngestOutcome, SkyError> {
        let mut session = Self::with_stream_stats(
            model,
            workload,
            options,
            StreamStats::from_segments(segments),
        );
        session.pin_ground_truth(
            segments
                .iter()
                .map(|s| model.ground_truth_category(workload, &s.content))
                .collect(),
        );
        for seg in segments {
            session.push(seg)?;
        }
        Ok(session.finish())
    }

    /// Pin the full ground-truth category feed (entry `i` is the category
    /// of the `i`-th pushed segment). Powers the oracle classification and
    /// forecast modes; without it a live session computes ground truth per
    /// segment and the ground-truth *forecast* degrades to the trailing
    /// observed window.
    pub fn pin_ground_truth(&mut self, categories: Vec<usize>) {
        self.state.gt_feed = Some(categories);
    }

    /// Snapshot the carried state. The checkpoint is self-contained (owns
    /// the RNG, switcher, backlog, wallet, trace, …); pair it with the same
    /// model and workload in [`resume`](Self::resume) to continue
    /// bit-for-bit.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            options: self.options.clone(),
            state: self.state.clone(),
        }
    }

    /// Re-attach a checkpoint to its model and workload.
    pub fn resume(model: &'a FittedModel, workload: &'a W, checkpoint: SessionCheckpoint) -> Self {
        Self {
            dedup_scope: dedup_scope(model, workload, &checkpoint.options),
            model,
            workload,
            options: checkpoint.options,
            state: checkpoint.state,
            scratch: HotScratch::default(),
            obs: None,
        }
    }

    /// Attach an observability handle (dedup-lookup timing and counters on
    /// the push path). Recording is bitwise-invisible — see [`crate::obs`].
    pub(crate) fn attach_obs(&mut self, obs: std::sync::Arc<crate::obs::Obs>) {
        self.obs = Some(obs);
    }

    /// Install a plan computed outside the session (joint multi-stream LP)
    /// and reset the switcher's usage counters, exactly as an internal
    /// replan would.
    pub fn install_plan(&mut self, plan: KnobPlan) {
        match &mut self.state.switcher {
            Some(sw) => sw.set_plan(plan),
            None => self.state.switcher = Some(KnobSwitcher::new(self.model, plan)),
        }
        self.state.plans += 1;
    }

    /// Set the cloud credits available to the next push (external wallet).
    pub fn set_cloud_credits(&mut self, usd: f64) {
        self.state.cloud_left = usd;
    }

    /// Cloud credits remaining in the wallet.
    pub fn cloud_credits_left(&self) -> f64 {
        self.state.cloud_left
    }

    /// Cloud dollars spent so far across the whole session.
    pub fn cloud_spent_usd(&self) -> f64 {
        self.state.cloud_spent_total
    }

    /// Current buffer fill in bytes (video set aside for later processing).
    pub fn buffer_bytes(&self) -> f64 {
        self.state.backlog.bytes()
    }

    /// Outstanding backlog work in core-seconds.
    pub fn backlog_work(&self) -> f64 {
        self.state.backlog.work()
    }

    /// Throughput-guarantee violations observed so far.
    pub fn overflows(&self) -> usize {
        self.state.overflows
    }

    /// Override the cluster capacity available to this session, in
    /// core-seconds per segment interval (a fair share of a shared cluster).
    pub fn set_capacity_per_seg(&mut self, core_secs: f64) {
        self.state.capacity_override = Some(core_secs);
    }

    /// The fitted model the session runs against.
    pub fn model(&self) -> &'a FittedModel {
        self.model
    }

    /// Options the session runs under.
    pub fn options(&self) -> &IngestOptions {
        &self.options
    }

    /// Segments processed so far.
    pub fn segments_pushed(&self) -> usize {
        self.state.seg_index
    }

    /// The retained tail of the observed category history (seeded with the
    /// offline tail): at least the forecaster's input span `t_in` once that
    /// much has been observed, and at most an eighth more. A standalone
    /// session that fine-tunes its forecaster retains all of it.
    pub fn history(&self) -> &[usize] {
        &self.state.history
    }

    /// Times the planner ran (internal or installed).
    pub fn plans(&self) -> usize {
        self.state.plans
    }

    /// Dedup counters accumulated so far (all zero when dedup is off).
    pub fn dedup_stats(&self) -> DedupStats {
        self.state.dedup_stats
    }

    /// Drain the dedup entries this session computed since the last drain,
    /// for publication into a shared cache at an epoch barrier.
    pub(crate) fn take_dedup_pending(&mut self) -> Vec<(DedupKey, DedupEntry)> {
        self.state.take_dedup_pending()
    }

    /// Forecast the category distribution for the next planned interval
    /// from the recent history — what an external (joint) planner feeds the
    /// shared LP. A count over the last `forecast_input_secs` of history and
    /// one network forward; it cannot fail, the `Result` is the signature
    /// its callers are written against.
    pub fn forecast_distribution(&self) -> Result<Vec<f64>, SkyError> {
        Ok(self.forecast_r(self.recent_history(), self.state.seg_index))
    }

    /// The last [`forecast_window`] segments of observed history — all the
    /// forecaster reads.
    fn recent_history(&self) -> &[usize] {
        let history = &self.state.history;
        &history[history.len().saturating_sub(forecast_window(self.model))..]
    }

    /// A standalone session fine-tuning its forecaster trains on its whole
    /// observed history at each replan (§3.3), so it must not trim it.
    fn fine_tunes(&self) -> bool {
        self.state.tuned_forecaster.is_some()
            && !self.state.external_planning
            && self.options.forecast == ForecastMode::Model
    }

    // ---- Derived quantities (pure functions of model + options + state,
    // recomputed per push so checkpoints stay self-contained). ----

    fn capacity_per_seg(&self) -> f64 {
        self.state
            .capacity_override
            .unwrap_or(self.model.hardware.cluster.throughput() * self.model.seg_len)
    }

    fn segs_per_interval(&self) -> f64 {
        (self.model.hyper.planned_interval_secs / self.model.seg_len).max(1.0)
    }

    fn budget_per_seg(&self) -> f64 {
        let cloud_core_secs = if self.options.enable_cloud {
            self.options
                .cost_model
                .cloud_usd_to_core_secs(self.options.cloud_budget_usd)
        } else {
            0.0
        };
        self.capacity_per_seg() + cloud_core_secs / self.segs_per_interval()
    }

    fn switch_every(&self) -> usize {
        let seg_len = self.model.seg_len;
        let period = self
            .options
            .switch_period_secs
            .unwrap_or(self.model.hyper.switch_period_secs)
            .max(seg_len);
        (period / seg_len).round().max(1.0) as usize
    }

    fn limits(&self, stats: StreamStats) -> SwitcherLimits {
        let buffer_capacity = if self.options.enable_buffering {
            self.model.hardware.buffer_bytes
        } else {
            // Without buffering only frame-level pipelining slack remains.
            3.0 * stats.seg_bytes_max
        };
        // The byte reserve uses the worst-case segment size: accepting work
        // against today's calm byte rate must still be safe when a stream
        // spike multiplies arrivals while the backlog drains (MOSEI-LONG).
        SwitcherLimits {
            buffer_capacity,
            seg_bytes_reserve: stats.seg_bytes_max,
            capacity_per_seg: self.capacity_per_seg(),
            safety: self.model.hyper.runtime_safety,
            cloud_enabled: self.options.enable_cloud,
        }
    }

    /// Forecast source dispatch (`r` over categories). `start_seg` indexes
    /// the ground-truth feed for the oracle window.
    fn forecast_r(&self, history: &[usize], start_seg: usize) -> Vec<f64> {
        let model = self.model;
        let n_c = model.n_categories();
        match self.options.forecast {
            ForecastMode::Model => model.forecaster.forecast(history, model.seg_len),
            ForecastMode::GroundTruth => {
                let span = self.segs_per_interval() as usize;
                let window: &[usize] = match &self.state.gt_feed {
                    Some(feed) if start_seg < feed.len() => {
                        let end = (start_seg + span).min(feed.len());
                        &feed[start_seg..end.max(start_seg + 1).min(feed.len())]
                    }
                    // No clairvoyant feed: degrade to the trailing observed
                    // ground truth.
                    _ => {
                        let n = self.state.gt_history.len();
                        &self.state.gt_history[n.saturating_sub(span)..]
                    }
                };
                if window.is_empty() {
                    return vec![1.0 / n_c as f64; n_c];
                }
                let mut r = vec![0.0; n_c];
                for &c in window {
                    r[c] += 1.0;
                }
                let s: f64 = r.iter().sum();
                if s > 0.0 {
                    r.iter_mut().for_each(|v| *v /= s);
                }
                r
            }
            ForecastMode::Uniform => vec![1.0 / n_c as f64; n_c],
        }
    }

    /// Run the planner (initial plan or interval replan) and install the
    /// result. `initial` selects the bootstrap forecast over the full
    /// seeded history.
    fn replan(&mut self, initial: bool) -> Result<(), SkyError> {
        let model = self.model;
        let seg_len = model.seg_len;
        let n_c = model.n_categories();
        let i = self.state.seg_index;
        let budget = self.budget_per_seg();

        let r = if initial {
            self.forecast_r(&self.state.history, 0)
        } else if self.options.forecast == ForecastMode::Model
            && self.state.tuned_forecaster.is_some()
        {
            // §3.3: fine-tune on the recently observed categories before
            // forecasting from them. The one place a session builds a
            // dataset, hence the one place it builds a timeline.
            let observed = CategoryTimeline::new(self.state.history.clone(), seg_len, n_c)?;
            let mut f = self.state.tuned_forecaster.take().expect("checked above");
            let _ = f.fine_tune(&observed, 3, self.options.seed ^ i as u64);
            let r = f.forecast(self.recent_history(), seg_len);
            self.state.tuned_forecaster = Some(f);
            r
        } else {
            self.forecast_r(self.recent_history(), i)
        };

        let plan: KnobPlan = plan_knobs(model, &r, budget)?;
        self.install_plan(plan);
        if !initial {
            self.state.cloud_left = self.options.cloud_budget_usd;
        }
        // A standalone session's interval replan is its epoch barrier:
        // publish pending dedup entries into the private cache.
        if let Some(mut cache) = self.state.dedup_own.take() {
            cache.begin_epoch();
            cache.publish(self.state.take_dedup_pending());
            cache.enforce_capacity();
            self.state.dedup_own = Some(cache);
        }
        Ok(())
    }

    /// Ingest one segment: classify, switch, execute on the simulator, and
    /// settle buffer/backlog/credits. Replans first when a planned-interval
    /// boundary was crossed (internal planning only).
    pub fn push(&mut self, seg: &Segment) -> Result<StepReport, SkyError> {
        self.push_with_cache(seg, None)
    }

    /// [`push`](Self::push) with a shared dedup cache injected — the call
    /// shape the multi-stream server and the sharded runtime use, so one
    /// cache serves entries across all their streams. When `shared` is
    /// `None` a standalone session falls back to its private cache (if
    /// [`IngestOptions::dedup`] is set).
    pub(crate) fn push_with_cache(
        &mut self,
        seg: &Segment,
        shared: Option<&DedupCache>,
    ) -> Result<StepReport, SkyError> {
        let model = self.model;
        let seg_len = model.seg_len;
        let i = self.state.seg_index;

        self.state.byte_stats.observe(seg.bytes);
        let stats = self.state.byte_stats.current();
        let limits = self.limits(stats);
        let buffer_capacity = limits.buffer_capacity;
        let capacity_per_seg = limits.capacity_per_seg;
        let switch_every = self.switch_every();

        // ---- Planning: bootstrap on the first push, then at interval
        // boundaries. Externally planned sessions require an installed plan
        // and never replan themselves. ----
        let mut replanned = false;
        if self.state.switcher.is_none() {
            if self.state.external_planning {
                return Err(SkyError::NoPlanInstalled);
            }
            self.replan(true)?;
            replanned = true;
        } else if !self.state.external_planning
            && i > 0
            && i.is_multiple_of(self.segs_per_interval() as usize)
        {
            self.replan(false)?;
            replanned = true;
        }

        // ---- Dedup consult (cross-stream result cache). A hit supplies
        // only the pure, RNG-free computations below (ground-truth
        // category, simulated execution, true quality); every RNG draw
        // still runs, which is what keeps exact mode bitwise identical to
        // dedup-disabled (see `crate::dedupe`). ----
        let dedup_key = self
            .options
            .dedup
            .map(|p| DedupKey::new(self.dedup_scope, seg, p.tolerance));
        let mut dedup_hit: Option<DedupEntry> = None;
        // Lookup timing only when recording is on *and* dedup is on: the
        // dedup-off push path must not pay even the `Instant` read.
        let t_dedup = if self.obs.is_some() && dedup_key.is_some() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let stale_before = self.state.dedup_stats.stale;
        if let (Some(policy), Some(key)) = (self.options.dedup, &dedup_key) {
            self.state.dedup_stats.lookups += 1;
            // Own pending entries are visible immediately (per-stream order
            // is shard-invariant); the shared/private cache only changes at
            // epoch barriers.
            dedup_hit = match self.state.dedup_pending_idx.get(key) {
                Some(&ix) => Some(self.state.dedup_pending[ix].1),
                None => {
                    let cache = shared.or(self.state.dedup_own.as_deref());
                    match cache {
                        None => None,
                        Some(c) => {
                            c.check_policy(&policy)?;
                            match c.lookup(key) {
                                Ok(found) => found,
                                Err(SkyError::StaleHit { .. }) => {
                                    self.state.dedup_stats.stale += 1;
                                    None
                                }
                                Err(e) => return Err(e),
                            }
                        }
                    }
                }
            };
        }
        if let (Some(o), Some(t)) = (self.obs.as_deref(), t_dedup) {
            o.registry
                .record(crate::obs::HistId::DedupLookup, t.elapsed());
            o.registry.inc(crate::obs::CounterId::DedupLookups);
            if dedup_hit.is_some() {
                o.registry.inc(crate::obs::CounterId::DedupHits);
            }
            if self.state.dedup_stats.stale > stale_before {
                o.registry.inc(crate::obs::CounterId::DedupStale);
            }
        }

        // ---- Ground truth for this segment (accuracy stats + oracles).
        // A dedup hit skips the oracle — its cached category is the same
        // pure function of the same content bits (exact mode) or the
        // bucket representative's (tolerant mode). A pinned feed wins. ----
        let gt_c = match &self.state.gt_feed {
            Some(feed) if i < feed.len() => feed[i],
            _ => match &dedup_hit {
                Some(e) => e.gt_category,
                None => model.ground_truth_category_with(
                    self.workload,
                    &seg.content,
                    &mut self.scratch.qualities,
                ),
            },
        };

        // ---- Classification (§5.6 modes). ----
        let switcher = self
            .state
            .switcher
            .as_mut()
            .expect("plan installed or bootstrapped above");
        let category = match self.options.classification {
            ClassificationMode::Standard => match self.state.last_reported {
                Some(q) => switcher.classify(model, q),
                None => gt_c, // first segment: no observation yet
            },
            ClassificationMode::NoTypeB => {
                let cur = switcher.current_config();
                let q = self.workload.reported_quality(
                    &model.configs[cur].config,
                    &seg.content,
                    &mut self.state.rng,
                );
                switcher.classify(model, q)
            }
            ClassificationMode::GroundTruth => gt_c,
        };
        if category != gt_c {
            self.state.misclassified += 1;
        }

        // ---- Knob switching. ----
        let need_decision = self.state.decision.is_none() || i.is_multiple_of(switch_every) || {
            // Re-decide early when the held decision is no longer
            // affordable or the buffer projection got tight.
            let d: &Decision = self.state.decision.as_ref().expect("checked above");
            let p = &model.configs[d.config].placements[d.placement];
            let drain_segs = (self.state.backlog.work() + p.onprem_work_max * limits.safety)
                / capacity_per_seg.max(1e-9);
            p.cloud_usd > self.state.cloud_left
                || self.state.backlog.bytes() + (drain_segs + 1.0) * limits.seg_bytes_reserve
                    > buffer_capacity
        };
        if need_decision {
            self.state.decision = Some(switcher.decide(
                model,
                category,
                self.state.backlog.bytes(),
                self.state.backlog.work(),
                self.state.cloud_left,
                &limits,
            ));
        }
        let d = self.state.decision.expect("decision just ensured");
        let switched = d.config != self.state.prev_config;
        if switched {
            self.state.switches += usize::from(self.state.prev_config != usize::MAX);
            self.state.prev_config = d.config;
        }

        // ---- Execute the segment on the simulator — unless the dedup
        // entry was computed under the very decision just taken (a *full*
        // hit), in which case the cached execution result and true quality
        // stand in for recomputation. ----
        let full_hit = dedup_hit.filter(|e| e.config == d.config && e.placement == d.placement);
        let profile = &model.configs[d.config];
        let (exec_usd, exec_onprem, exec_cloud_secs, true_q) = match &full_hit {
            Some(e) => (
                e.cloud_usd,
                e.onprem_busy_secs,
                e.cloud_busy_secs,
                e.true_quality,
            ),
            None => {
                // Per-config cached graph + reusable simulator scratch:
                // after the first segment of each configuration, execution
                // allocates nothing and stays bitwise-identical to the
                // allocating `task_graph`/`simulate` pair (see
                // `HotScratch`).
                if self.scratch.graphs.len() < model.configs.len() {
                    self.scratch
                        .graphs
                        .resize_with(model.configs.len(), TaskGraph::new);
                }
                self.workload.task_graph_into(
                    &profile.config,
                    &seg.content,
                    &mut self.scratch.graphs[d.config],
                );
                let placement = &profile.placements[d.placement].placement;
                let result = simulate_into(
                    &self.scratch.graphs[d.config],
                    placement,
                    &model.hardware.cluster,
                    &model.hardware.cloud,
                    &mut self.scratch.sim,
                );
                let true_q = self.workload.true_quality(&profile.config, &seg.content);
                (
                    result.cloud_usd,
                    result.onprem_busy_secs,
                    result.cloud_busy_secs,
                    true_q,
                )
            }
        };

        // A miss (or a hit whose decision moved) feeds the cache: record a
        // pending entry, published at the next epoch barrier.
        if full_hit.is_none() {
            if let Some(key) = dedup_key {
                self.state.record_dedup_pending(
                    key,
                    DedupEntry {
                        gt_category: gt_c,
                        config: d.config,
                        placement: d.placement,
                        true_quality: true_q,
                        cloud_usd: exec_usd,
                        onprem_busy_secs: exec_onprem,
                        cloud_busy_secs: exec_cloud_secs,
                        confidence: 1,
                        born_epoch: 0, // stamped at publication
                    },
                );
            }
        }

        // ---- Charging. Exact mode charges a full hit exactly what
        // recomputation would have (bitwise-equal numbers; the win is the
        // skipped compute). Tolerant mode charges a full hit *nothing* —
        // zero wallet spend, zero queued work — and books the avoided
        // spend as savings. Either way the category history above feeds
        // the forecaster normally, so Eqs. 7–9 inputs stay coherent. ----
        let zero_charge = full_hit.is_some() && self.options.dedup.is_some_and(|p| !p.is_exact());
        let (charge_usd, charge_onprem, charge_cloud_secs) = if zero_charge {
            (0.0, 0.0, 0.0)
        } else {
            (exec_usd, exec_onprem, exec_cloud_secs)
        };
        if full_hit.is_some() {
            self.state.dedup_stats.hits_full += 1;
            self.state.dedup_stats.bytes_saved += seg.bytes;
            self.state.dedup_stats.work_saved_secs += exec_onprem + exec_cloud_secs;
            if zero_charge {
                self.state.dedup_stats.spend_saved_usd += exec_usd;
            }
        } else if dedup_hit.is_some() {
            self.state.dedup_stats.hits_gt += 1;
        }
        self.state.cloud_left -= charge_usd;
        self.state.cloud_spent_total += charge_usd;
        let step_work = charge_onprem + charge_cloud_secs;
        self.state.work_total += step_work;

        // ---- Buffer / backlog settlement (Eq. 1). ----
        self.state.backlog.push(seg.bytes, charge_onprem);
        let _freed = self.state.backlog.process(capacity_per_seg);
        let buffered = self.state.backlog.bytes();
        self.state.buffer_peak = self.state.buffer_peak.max(buffered);
        let overflowed = buffered > buffer_capacity + stats.seg_bytes_max;
        if overflowed {
            self.state.overflows += 1;
        }

        // ---- Quality bookkeeping. ----
        self.state.quality_total += true_q;
        let reported =
            self.workload
                .reported_quality(&profile.config, &seg.content, &mut self.state.rng);
        let mut drift_alarm = false;
        if let Some(det) = self.state.drift.as_mut() {
            if det.observe(&model.categories, d.config, reported) {
                self.state.drift_alarms += 1;
                drift_alarm = true;
            }
        }
        self.state.last_reported = Some(reported);
        if self.fine_tunes() {
            self.state.history.push(category);
        } else {
            push_window(&mut self.state.history, category, forecast_window(model));
        }
        if self.options.forecast == ForecastMode::GroundTruth {
            let span = self.segs_per_interval() as usize;
            push_window(&mut self.state.gt_history, gt_c, span);
        }

        if self.options.record_trace {
            self.state.trace.push(TracePoint {
                t_secs: seg.start().as_secs(),
                quality: true_q,
                work_rate: step_work / seg_len,
                buffer_bytes: buffered,
                cloud_usd: self.state.cloud_spent_total,
                config: d.config,
                category,
            });
        }

        self.state.seg_index = i + 1;
        Ok(StepReport {
            seg_index: i,
            t_secs: seg.start().as_secs(),
            category,
            config: d.config,
            placement: d.placement,
            deviated: d.deviated,
            switched,
            replanned,
            buffer_bytes: buffered,
            backlog_work: self.state.backlog.work(),
            cloud_usd_step: charge_usd,
            cloud_credits_left: self.state.cloud_left,
            work_core_secs: step_work,
            reported_quality: reported,
            overflowed,
            drift_alarm,
        })
    }

    /// Ingest one *arrival* — a segment as the network delivered it, not
    /// necessarily in index order. With [`IngestOptions::reorder_window`]
    /// set, the arrival passes through the reorder gate: in-order arrivals
    /// process immediately, ahead-of-watermark arrivals are held (releasing
    /// zero or more segments once their gap fills or the window forces the
    /// watermark forward), and behind-the-watermark arrivals are rejected
    /// with [`SkyError::LateSegment`] before any state changes. Returns one
    /// [`StepReport`] per segment actually processed by this call — possibly
    /// none (arrival held), possibly several (a gap just filled).
    ///
    /// Without a window this is exactly [`push`](Self::push) (one report).
    /// Callers using this API must
    /// [`flush_reorder_gate`](Self::flush_reorder_gate) before
    /// [`finish`](Self::finish), or
    /// segments still held at the end would be dropped.
    ///
    /// A mid-release processing error is wrapped in
    /// [`SkyError::BatchFailed`] with the count of segments already
    /// processed; the session keeps the state of every one of them.
    pub fn push_arrival(&mut self, seg: &Segment) -> Result<Vec<StepReport>, SkyError> {
        if !self.gate_check(seg)? {
            return Ok(vec![self.push(seg)?]);
        }
        let released = self.gate_admit(*seg);
        self.push_released(released)
    }

    /// Release everything the reorder gate still holds (remaining gaps are
    /// declared lost in [`ReorderStats::lost`]) and process it. A no-op
    /// returning an empty `Vec` when no window is configured or nothing is
    /// held.
    pub fn flush_reorder_gate(&mut self) -> Result<Vec<StepReport>, SkyError> {
        let released = self.gate_drain();
        self.push_released(released)
    }

    fn push_released(&mut self, released: Vec<Segment>) -> Result<Vec<StepReport>, SkyError> {
        let mut reports = Vec::with_capacity(released.len());
        for seg in &released {
            match self.push(seg) {
                Ok(report) => reports.push(report),
                Err(e) => {
                    return Err(SkyError::BatchFailed {
                        accepted: reports.len(),
                        source: Box::new(e),
                    })
                }
            }
        }
        Ok(reports)
    }

    /// Counters for the reorder gate (all zero when no window is
    /// configured).
    pub fn reorder_stats(&self) -> ReorderStats {
        self.state
            .gate
            .as_ref()
            .map(|g| g.stats)
            .unwrap_or_default()
    }

    /// Number of segments currently held by the reorder gate.
    pub fn reorder_held(&self) -> usize {
        self.state.gate.as_ref().map_or(0, |g| g.held.len())
    }

    /// Pure pre-journal check of one arrival against the reorder gate.
    /// `Ok(false)`: no gate is configured and the segment goes straight
    /// downstream (the gate-less hot path stays allocation-free).
    /// `Ok(true)`: the gate takes it — the caller journals this arrival on
    /// its own and then routes it through [`gate_admit`](Self::gate_admit).
    pub(crate) fn gate_check(&self, seg: &Segment) -> Result<bool, SkyError> {
        match &self.state.gate {
            Some(g) => g.check(seg).map(|()| true),
            None => Ok(false),
        }
    }

    /// Admit an arrival that passed [`gate_check`](Self::gate_check),
    /// returning the segments released for processing in index order; the
    /// caller owns delivering them downstream.
    pub(crate) fn gate_admit(&mut self, seg: Segment) -> Vec<Segment> {
        match &mut self.state.gate {
            Some(g) => g.admit(seg),
            None => vec![seg],
        }
    }

    /// Drain every held segment (gaps become [`ReorderStats::lost`]);
    /// empty when no gate is configured.
    pub(crate) fn gate_drain(&mut self) -> Vec<Segment> {
        match &mut self.state.gate {
            Some(g) => g.drain_all(),
            None => Vec::new(),
        }
    }

    /// Settle the session into the run's outcome.
    pub fn finish(self) -> IngestOutcome {
        let s = self.state;
        let n = s.seg_index.max(1);
        IngestOutcome {
            trace: s.trace,
            mean_quality: s.quality_total / n as f64,
            work_core_secs: s.work_total,
            cloud_usd: s.cloud_spent_total,
            buffer_peak: s.buffer_peak,
            overflows: s.overflows,
            switches: s.switches,
            misclassification_rate: s.misclassified as f64 / n as f64,
            plans: s.plans,
            segments: s.seg_index,
            duration_secs: s.seg_index as f64 * self.model.seg_len,
            drift_alarms: s.drift_alarms,
            dedup: s.dedup_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkyscraperConfig;
    use crate::offline::run_offline;
    use crate::testkit::{assert_outcomes_bitwise_equal, ToyWorkload};
    use vetl_sim::HardwareSpec;
    use vetl_video::{ContentParams, Recording, SyntheticCamera};

    impl SessionCheckpoint {
        /// This checkpoint as a build without bounded retention wrote it: the
        /// whole observed category `history` and the ground-truth category of
        /// every processed segment. Panics unless the retained lists are tails
        /// of those.
        pub(crate) fn with_full_history(
            mut self,
            history: Vec<usize>,
            gt_history: Vec<usize>,
        ) -> Self {
            assert!(history.ends_with(&self.state.history), "history tail");
            assert!(gt_history.ends_with(&self.state.gt_history), "gt tail");
            assert_eq!(gt_history.len(), self.state.seg_index, "one gt per segment");
            self.state.history = history;
            self.state.gt_history = gt_history;
            self
        }
    }

    fn setup(cores: usize) -> (ToyWorkload, FittedModel, Vec<Segment>) {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let (model, _) = run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(cores),
            &SkyscraperConfig::fast_test(),
        )
        .unwrap();
        let online = Recording::record(&mut cam, 4.0 * 3_600.0);
        (w, model, online.segments().to_vec())
    }

    #[test]
    fn manual_push_loop_matches_batch_bitwise() {
        let (w, model, segments) = setup(2);
        for opts in [
            IngestOptions::default(),
            IngestOptions {
                forecast: ForecastMode::GroundTruth,
                record_trace: true,
                ..Default::default()
            },
            IngestOptions {
                classification: ClassificationMode::NoTypeB,
                detect_drift: true,
                ..Default::default()
            },
        ] {
            let batch = IngestSession::batch(&model, &w, opts.clone(), &segments).unwrap();
            let mut session = IngestSession::with_stream_stats(
                &model,
                &w,
                opts,
                StreamStats::from_segments(&segments),
            );
            session.pin_ground_truth(
                segments
                    .iter()
                    .map(|s| model.ground_truth_category(&w, &s.content))
                    .collect(),
            );
            for seg in &segments {
                session.push(seg).unwrap();
            }
            assert_outcomes_bitwise_equal("session bitwise", &batch, &session.finish());
        }
    }

    #[test]
    fn checkpoint_resume_is_bitwise_transparent() {
        let (w, model, segments) = setup(2);
        let opts = IngestOptions {
            record_trace: true,
            ..Default::default()
        };
        let straight = IngestSession::batch(&model, &w, opts.clone(), &segments).unwrap();

        let mut session = IngestSession::with_stream_stats(
            &model,
            &w,
            opts,
            StreamStats::from_segments(&segments),
        );
        session.pin_ground_truth(
            segments
                .iter()
                .map(|s| model.ground_truth_category(&w, &s.content))
                .collect(),
        );
        let mid = segments.len() / 2;
        for seg in &segments[..mid] {
            session.push(seg).unwrap();
        }
        let ckpt = session.checkpoint();
        assert_eq!(ckpt.segments_pushed(), mid);
        drop(session);

        let mut resumed = IngestSession::resume(&model, &w, ckpt);
        for seg in &segments[mid..] {
            resumed.push(seg).unwrap();
        }
        assert_outcomes_bitwise_equal("session bitwise", &straight, &resumed.finish());
    }

    #[test]
    fn live_session_without_pins_keeps_guarantees() {
        let (w, model, segments) = setup(2);
        let mut session = IngestSession::new(&model, &w, IngestOptions::default());
        let mut replans = 0;
        for seg in &segments {
            let report = session.push(seg).unwrap();
            assert!(!report.overflowed, "Eq. 1 must hold live");
            replans += usize::from(report.replanned);
        }
        assert!(replans >= 1, "bootstrap plan must be reported");
        let out = session.finish();
        assert_eq!(out.overflows, 0);
        assert_eq!(out.segments, segments.len());
        assert!(out.mean_quality > 0.3);
    }

    #[test]
    fn step_reports_expose_decisions_and_accounting() {
        let (w, model, segments) = setup(2);
        let mut session = IngestSession::with_stream_stats(
            &model,
            &w,
            IngestOptions::default(),
            StreamStats::from_segments(&segments),
        );
        let mut cloud_sum = 0.0;
        let mut switches = 0;
        for (i, seg) in segments.iter().enumerate() {
            let r = session.push(seg).unwrap();
            assert_eq!(r.seg_index, i);
            assert!(r.config < model.n_configs());
            assert!(r.category < model.n_categories());
            cloud_sum += r.cloud_usd_step;
            switches += usize::from(r.switched && i > 0);
        }
        let out = session.finish();
        assert!((cloud_sum - out.cloud_usd).abs() < 1e-12);
        assert_eq!(switches, out.switches);
    }

    #[test]
    fn external_session_requires_an_installed_plan() {
        let (w, model, segments) = setup(2);
        let mut session = IngestSession::external(&model, &w, IngestOptions::default());
        assert_eq!(
            session.push(&segments[0]).unwrap_err(),
            SkyError::NoPlanInstalled
        );
        let plan =
            KnobPlan::single_config(model.n_categories(), model.n_configs(), model.cheapest());
        session.install_plan(plan);
        session.push(&segments[0]).unwrap();
        assert_eq!(session.plans(), 1);
        // External sessions never replan on their own.
        for seg in &segments[1..200] {
            session.push(seg).unwrap();
        }
        assert_eq!(session.plans(), 1);
    }

    #[test]
    fn forecast_distribution_is_the_forecast_of_the_history_tail() {
        // Two planned intervals and a bit: the seeded offline tail has slid
        // out of the input span, and both replan arms have run.
        let (w, model, segments) = setup_long(2);
        let n_c = model.n_categories();
        let interval = (model.hyper.planned_interval_secs / model.seg_len) as usize;
        let pushes = 2 * interval + 100;
        let feed: Vec<usize> = segments
            .iter()
            .map(|s| model.ground_truth_category(&w, &s.content))
            .collect();
        for forecast in [
            ForecastMode::Model,
            ForecastMode::GroundTruth,
            ForecastMode::Uniform,
        ] {
            let opts = IngestOptions {
                forecast,
                ..Default::default()
            };
            let mut session = IngestSession::new(&model, &w, opts);
            session.pin_ground_truth(feed.clone());
            // The whole observed history, rebuilt outside the session.
            let mut full = model.tail.categories.clone();
            for seg in &segments[..pushes] {
                full.push(session.push(seg).unwrap().category);
            }
            assert!(full.ends_with(session.history()));
            assert!(
                session.history().len() < full.len(),
                "the history was trimmed"
            );
            let expected = match forecast {
                ForecastMode::Model => model.forecaster.forecast(&full, model.seg_len),
                ForecastMode::GroundTruth => {
                    let window = &feed[pushes..(pushes + interval).min(feed.len())];
                    (0..n_c)
                        .map(|c| {
                            window.iter().filter(|&&g| g == c).count() as f64 / window.len() as f64
                        })
                        .collect()
                }
                ForecastMode::Uniform => vec![1.0 / n_c as f64; n_c],
            };
            let r = session.forecast_distribution().expect("forecast");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&r), bits(&expected), "{forecast:?}");
            assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            assert!(r.iter().all(|&v| v >= 0.0));
        }
    }

    // ---- Legacy batch-driver guarantees, now running through the session
    // wrapper (12-hour streams, as in the original driver tests). ----

    fn setup_long(cores: usize) -> (ToyWorkload, FittedModel, Vec<Segment>) {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let (model, _) = run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(cores),
            &SkyscraperConfig::fast_test(),
        )
        .unwrap();
        let online = Recording::record(&mut cam, 12.0 * 3_600.0);
        (w, model, online.segments().to_vec())
    }

    /// `fast_test` with a 20 min forecaster input and 30 min planned
    /// intervals (windows of 600 and 900 segments), and 2 h of online video:
    /// a stream crosses many history trims and replans.
    fn setup_short() -> (ToyWorkload, FittedModel, Vec<Segment>) {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let hyper = SkyscraperConfig {
            forecast_input_secs: 20.0 * 60.0,
            planned_interval_secs: 30.0 * 60.0,
            ..SkyscraperConfig::fast_test()
        };
        let (model, _) = run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(2),
            &hyper,
        )
        .unwrap();
        let online = Recording::record(&mut cam, 2.0 * 3_600.0);
        (w, model, online.segments().to_vec())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The normalized histogram of the last `span` entries of `gt`.
    fn trailing_histogram(gt: &[usize], span: usize, n_c: usize) -> Vec<f64> {
        let window = &gt[gt.len().saturating_sub(span)..];
        if window.is_empty() {
            return vec![1.0 / n_c as f64; n_c];
        }
        let mut r = vec![0.0; n_c];
        for &c in window {
            r[c] += 1.0;
        }
        let s: f64 = r.iter().sum();
        r.iter_mut().for_each(|v| *v /= s);
        r
    }

    /// The trim oracle: over more than three windows of pushes, the forecast
    /// from the retained history is bit-equal to the forecast from the whole
    /// observed history, rebuilt outside the session, after every push; the
    /// retained lists stay within their window plus an eighth, and their
    /// capacity is reserved once.
    #[test]
    fn trimmed_history_forecasts_like_the_full_history() {
        let (w, model, segments) = setup_short();
        let n_c = model.n_categories();
        let keep = forecast_window(&model);
        let span = (model.hyper.planned_interval_secs / model.seg_len) as usize;
        assert_eq!((keep, span), (600, 900));
        assert!(segments.len() >= 3 * span);
        for forecast in [ForecastMode::Model, ForecastMode::GroundTruth] {
            let opts = IngestOptions {
                forecast,
                ..Default::default()
            };
            let mut session = IngestSession::new(&model, &w, opts);
            let mut full = model.tail.categories.clone();
            let mut gt = Vec::new();
            let mut caps = (None, None);
            for seg in &segments {
                let report = session.push(seg).unwrap();
                full.push(report.category);
                gt.push(model.ground_truth_category(&w, &seg.content));
                let expected = match forecast {
                    ForecastMode::Model => model.forecaster.forecast(&full, model.seg_len),
                    _ => trailing_histogram(&gt, span, n_c),
                };
                let r = session.forecast_distribution().unwrap();
                assert_eq!(bits(&r), bits(&expected), "{forecast:?} at {}", gt.len());

                let state = &session.state;
                assert!(full.ends_with(&state.history));
                assert!(state.history.len() <= keep + keep / 8);
                if full.len() > keep + keep / 8 {
                    let cap = *caps.0.get_or_insert(state.history.capacity());
                    assert_eq!(state.history.capacity(), cap, "history reallocated");
                }
                if forecast == ForecastMode::GroundTruth {
                    assert!(gt.ends_with(&state.gt_history));
                    assert!(state.gt_history.len() <= span + span / 8);
                    if gt.len() > span + span / 8 {
                        let cap = *caps.1.get_or_insert(state.gt_history.capacity());
                        assert_eq!(state.gt_history.capacity(), cap, "gt reallocated");
                    }
                } else {
                    assert!(state.gt_history.is_empty(), "nothing reads it");
                }
            }
            assert!(session.plans() >= 4, "both replan arms ran");
        }
    }

    /// A standalone session that fine-tunes its forecaster trains on all of
    /// its history, so it keeps all of it.
    #[test]
    fn a_fine_tuning_session_keeps_its_whole_history() {
        let (w, model, segments) = setup_short();
        let opts = IngestOptions {
            finetune_forecaster: true,
            ..Default::default()
        };
        let mut session = IngestSession::new(&model, &w, opts);
        let mut full = model.tail.categories.clone();
        for seg in &segments[..2_000] {
            full.push(session.push(seg).unwrap().category);
        }
        assert_eq!(session.history(), &full[..]);
    }

    /// Retention is bounded, so a snapshot's size does not grow with the
    /// stream's age: at ages 2 and 4 windows (the same trim phase) a
    /// checkpoint encodes to the same length, apart from the backlog of
    /// buffered video (16 bytes an entry), which follows the content and is
    /// bounded by the buffer (Eq. 1), not by age.
    #[test]
    fn checkpoint_size_is_flat_in_stream_age() {
        let (w, model, segments) = setup_short();
        let keep = forecast_window(&model);
        let mut session = IngestSession::new(&model, &w, IngestOptions::default());
        let mut lens = Vec::new();
        for (i, seg) in segments[..4 * keep].iter().enumerate() {
            session.push(seg).unwrap();
            if i + 1 == 2 * keep || i + 1 == 4 * keep {
                let backlog = session.state.backlog.len();
                lens.push(session.checkpoint().encode().len() - 16 * backlog);
            }
        }
        assert_eq!(lens[0], lens[1], "checkpoint bytes at ages 2 and 4 windows");
    }

    /// A checkpoint with the untrimmed lists a build without bounded
    /// retention wrote (the whole observed history, every ground-truth
    /// category) resumes to the same outcome as the trimmed one, bitwise,
    /// through the real encoder.
    #[test]
    fn untrimmed_checkpoint_resumes_like_the_trimmed_one() {
        let (w, model, segments) = setup_short();
        let mut session = IngestSession::new(&model, &w, IngestOptions::default());
        let mid = 1_500;
        let mut full = model.tail.categories.clone();
        for seg in &segments[..mid] {
            full.push(session.push(seg).unwrap().category);
        }
        let gt: Vec<usize> = segments[..mid]
            .iter()
            .map(|s| model.ground_truth_category(&w, &s.content))
            .collect();
        let trimmed = session.checkpoint();
        let untrimmed = trimmed.clone().with_full_history(full, gt);
        assert!(untrimmed.encode().len() > trimmed.encode().len());
        for seg in &segments[mid..] {
            session.push(seg).unwrap();
        }
        let straight = session.finish();
        for ckpt in [trimmed, untrimmed] {
            let decoded = SessionCheckpoint::decode(&ckpt.encode()).expect("decode");
            decoded.validate_against(&model).expect("validate");
            let mut resumed = IngestSession::resume(&model, &w, decoded);
            for seg in &segments[mid..] {
                resumed.push(seg).unwrap();
            }
            assert!(resumed.history().len() <= forecast_window(&model) * 9 / 8);
            assert_outcomes_bitwise_equal("resumed ≡ uninterrupted", &straight, &resumed.finish());
        }
    }

    #[test]
    fn ingest_never_violates_the_throughput_guarantee() {
        let (w, model, segments) = setup_long(2);
        let out = IngestSession::batch(&model, &w, IngestOptions::default(), &segments).unwrap();
        assert_eq!(out.overflows, 0, "Eq. 1 must hold");
        assert!(out.buffer_peak <= model.hardware.buffer_bytes + 1e6);
        assert_eq!(out.segments, segments.len());
    }

    #[test]
    fn more_cores_buy_more_quality() {
        let (w2, m2, segs2) = setup_long(1);
        let small = IngestSession::batch(&m2, &w2, IngestOptions::default(), &segs2).unwrap();
        let (w8, m8, segs8) = setup_long(8);
        let large = IngestSession::batch(&m8, &w8, IngestOptions::default(), &segs8).unwrap();
        assert!(
            large.mean_quality >= small.mean_quality,
            "8 cores ({}) must not lose to 1 core ({})",
            large.mean_quality,
            small.mean_quality
        );
    }

    #[test]
    fn skyscraper_beats_always_cheapest_quality() {
        let (w, model, segments) = setup_long(2);
        let out = IngestSession::batch(&model, &w, IngestOptions::default(), &segments).unwrap();
        // Quality of always-cheapest:
        let cheap = &model.configs[model.cheapest()].config;
        let cheap_q: f64 = segments
            .iter()
            .map(|s| w.true_quality(cheap, &s.content))
            .sum::<f64>()
            / segments.len() as f64;
        assert!(
            out.mean_quality > cheap_q + 0.02,
            "adaptive ({}) must beat always-cheapest ({})",
            out.mean_quality,
            cheap_q
        );
    }

    #[test]
    fn disabling_cloud_spends_nothing() {
        let (w, model, segments) = setup_long(2);
        let opts = IngestOptions {
            enable_cloud: false,
            ..Default::default()
        };
        let out = IngestSession::batch(&model, &w, opts, &segments).unwrap();
        assert_eq!(out.cloud_usd, 0.0);
        assert_eq!(out.overflows, 0);
    }

    #[test]
    fn cloud_spending_respects_budget() {
        let (w, model, segments) = setup_long(1);
        let budget = 0.05;
        let opts = IngestOptions {
            cloud_budget_usd: budget,
            ..Default::default()
        };
        let out = IngestSession::batch(&model, &w, opts, &segments).unwrap();
        // Budget is per planned interval; the run covers at most 3 intervals
        // under the fast-test config (4 h each).
        let intervals = (out.duration_secs / model.hyper.planned_interval_secs)
            .ceil()
            .max(1.0);
        assert!(
            out.cloud_usd <= budget * intervals + 1e-9,
            "spent {} over {} intervals of {}",
            out.cloud_usd,
            intervals,
            budget
        );
    }

    #[test]
    fn ground_truth_classification_beats_standard() {
        let (w, model, segments) = setup_long(2);
        let std_out =
            IngestSession::batch(&model, &w, IngestOptions::default(), &segments).unwrap();
        let gt_opts = IngestOptions {
            classification: ClassificationMode::GroundTruth,
            ..Default::default()
        };
        let gt_out = IngestSession::batch(&model, &w, gt_opts, &segments).unwrap();
        assert_eq!(gt_out.misclassification_rate, 0.0);
        assert!(std_out.misclassification_rate >= 0.0);
        assert!(gt_out.mean_quality >= std_out.mean_quality - 0.02);
    }

    #[test]
    fn trace_is_recorded_on_request() {
        let (w, model, segments) = setup_long(2);
        let opts = IngestOptions {
            record_trace: true,
            ..Default::default()
        };
        let out = IngestSession::batch(&model, &w, opts, &segments[..1000]).unwrap();
        assert_eq!(out.trace.len(), 1000);
        assert!(out.trace.mean_quality() > 0.0);
    }

    #[test]
    fn drift_detector_stays_quiet_on_stationary_content() {
        let (w, model, segments) = setup_long(2);
        let opts = IngestOptions {
            detect_drift: true,
            ..Default::default()
        };
        let out = IngestSession::batch(&model, &w, opts, &segments[..5000]).unwrap();
        // The online stream is drawn from the same process the model was
        // fitted on: the alarm must fire on at most a sliver of segments.
        assert!(
            (out.drift_alarms as f64) < 0.02 * 5000.0,
            "{} drift alarms on stationary content",
            out.drift_alarms
        );
    }

    #[test]
    fn finetuned_forecaster_keeps_guarantees_and_quality() {
        let (w, model, segments) = setup_long(2);
        let base = IngestSession::batch(&model, &w, IngestOptions::default(), &segments).unwrap();
        let opts = IngestOptions {
            finetune_forecaster: true,
            ..Default::default()
        };
        let tuned = IngestSession::batch(&model, &w, opts, &segments).unwrap();
        assert_eq!(tuned.overflows, 0);
        assert!(
            tuned.mean_quality > base.mean_quality - 0.05,
            "fine-tuning must not collapse quality: {} vs {}",
            tuned.mean_quality,
            base.mean_quality
        );
    }

    #[test]
    fn encoded_checkpoint_resumes_bitwise_identically() {
        // The durable-checkpoint contract: encode → decode → resume is
        // indistinguishable from resuming the in-memory checkpoint, for a
        // state that exercises every optional field (trace, drift detector,
        // fine-tuned forecaster, pinned ground truth).
        let (w, model, segments) = setup(2);
        let opts = IngestOptions {
            record_trace: true,
            detect_drift: true,
            finetune_forecaster: true,
            ..Default::default()
        };
        let mut session = IngestSession::with_stream_stats(
            &model,
            &w,
            opts,
            StreamStats::from_segments(&segments),
        );
        session.pin_ground_truth(
            segments
                .iter()
                .map(|s| model.ground_truth_category(&w, &s.content))
                .collect(),
        );
        let mid = segments.len() / 2;
        for seg in &segments[..mid] {
            session.push(seg).unwrap();
        }
        let ckpt = session.checkpoint();
        let forecast = session.forecast_distribution().expect("forecast");
        drop(session);

        let bytes = ckpt.encode();
        let decoded = SessionCheckpoint::decode(&bytes).expect("decode");
        decoded.validate_against(&model).expect("validate");
        assert_eq!(decoded.segments_pushed(), mid);

        let mut mem = IngestSession::resume(&model, &w, ckpt);
        let mut disk = IngestSession::resume(&model, &w, decoded);
        // The forecast is a function of the carried history alone.
        for resumed in [&mem, &disk] {
            let r = resumed.forecast_distribution().expect("forecast");
            assert!(r
                .iter()
                .zip(&forecast)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        for seg in &segments[mid..] {
            let a = mem.push(seg).unwrap();
            let b = disk.push(seg).unwrap();
            assert_eq!(a.reported_quality.to_bits(), b.reported_quality.to_bits());
            assert_eq!(a.config, b.config);
            assert_eq!(a.cloud_usd_step.to_bits(), b.cloud_usd_step.to_bits());
        }
        assert_outcomes_bitwise_equal("bitwise", &mem.finish(), &disk.finish());
    }

    #[test]
    fn corrupt_checkpoint_bytes_are_typed_errors_not_panics() {
        let (w, model, segments) = setup(2);
        let mut session = IngestSession::new(&model, &w, IngestOptions::default());
        for seg in &segments[..50] {
            session.push(seg).unwrap();
        }
        let bytes = session.checkpoint().encode();

        // Truncations at every prefix must fail cleanly.
        for cut in 0..bytes.len().min(256) {
            assert!(SessionCheckpoint::decode(&bytes[..cut]).is_err());
        }
        for cut in (0..bytes.len()).step_by(97) {
            assert!(SessionCheckpoint::decode(&bytes[..cut]).is_err());
        }
        // Single-byte mutations must either fail cleanly or decode into
        // *something* — never panic. (Float payload flips legitimately
        // decode; validate_against then guards the model-dependent parts.)
        for i in (0..bytes.len()).step_by(41) {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x80;
            if let Ok(ckpt) = SessionCheckpoint::decode(&mutated) {
                let _ = ckpt.validate_against(&model);
            }
        }
    }

    #[test]
    fn uniform_forecast_does_not_crash_and_is_reasonable() {
        let (w, model, segments) = setup_long(2);
        let opts = IngestOptions {
            forecast: ForecastMode::Uniform,
            ..Default::default()
        };
        let out = IngestSession::batch(&model, &w, opts, &segments).unwrap();
        assert!(out.mean_quality > 0.3);
        assert_eq!(out.overflows, 0);
    }
}
