//! # skyscraper — content-adaptive knob tuning for Video Extract-Transform-Load
//!
//! This crate is a from-scratch Rust reproduction of **Skyscraper** from
//! *"Extract-Transform-Load for Video Streams"* (Kossmann et al., VLDB 2023).
//!
//! ## The V-ETL problem
//!
//! Video is easy to produce but expensive to store and query. A video
//! warehouse ingests live streams by *transforming* them into an
//! application-specific relational format (car counts, pedestrian tracks,
//! sentiment labels, …). The Transform step must (1) keep up with the rate at
//! which video arrives — lag is bounded by a fixed-size buffer (Eq. 1) — and
//! (2) stay within a monetary budget. Skyscraper maximizes result quality
//! under both constraints by **content-adaptive knob tuning**: expensive knob
//! configurations (full frame rate, large models, tiling) are reserved for
//! content that needs them, cheap configurations handle the easy content.
//!
//! ## Architecture
//!
//! * [`offline`] — the preparation phase (§3), staged as an artifact
//!   pipeline (`ProfileArtifact → CategoryArtifact → ForecastArtifact →
//!   PlanArtifact`): diverse segment sampling and greedy hill-climbing to
//!   filter knob configurations to a work/quality Pareto set (Appendix A.1),
//!   exhaustive/beam placement search over the Appendix-M simulator filtered
//!   to the cost/runtime Pareto set (Appendix A.2), KMeans content
//!   categorization over quality vectors (§3.2), and training of the
//!   feed-forward forecaster (§3.3, Appendix H). Artifacts persist to a
//!   [`KnowledgeBase`] and refit **incrementally** when recordings grow.
//! * [`online`] — the ingestion phase (§4): the predictive **knob planner**
//!   solving the LP of Eqs. 2–4 every planned interval, the reactive
//!   **knob switcher** implementing Eqs. 5–6 with the buffer-overflow
//!   fallback recursion, and the streaming **ingest session** that enforces
//!   the throughput guarantee per pushed segment while tracking buffer,
//!   backlog, and cloud spend (with checkpoint/resume).
//! * [`multistream`] — the Appendix-D generalization's planning pieces:
//!   the joint LP of Eqs. 7–9 over a shared cloud wallet, admission, and
//!   the epoch-barrier splits.
//! * [`runtime`] — the multi-stream serving engine: a
//!   [`runtime::IngestRuntime`] sharding sessions across worker threads
//!   with bounded ingress mailboxes, epoch-lease semantics (per-epoch
//!   pre-split wallet leases, quota-defined barriers, joint replanning),
//!   and mid-run stream churn — bitwise identical for every shard count to
//!   a small single-threaded reference of the same semantics.
//! * [`dedupe`] — cross-stream content dedup: a bounded, epoch-aged
//!   [`dedupe::DedupCache`] keyed by exact content signatures
//!   ([`vetl_video::Segment::signature_words`]) short-circuits redundant
//!   segments to cached extraction results across all streams, with
//!   shard-count-independent epoch-barrier publication (new entries merge
//!   at the barrier in stable slot order) and exact mode (tolerance 0)
//!   bitwise identical to dedup-disabled.
//! * [`serve`] — the network-serving integration: a profile registry plus
//!   [`serve::IngestService`] wrapping the runtime, and the versioned
//!   binary wire protocol ([`serve::proto`]) spoken by the `vetl-net`
//!   socket server — segments on the wire use the journal's exact
//!   encoding, so served and in-process ingestion are bitwise identical.
//! * [`obs`] — observability: a deterministic metrics registry (counters,
//!   gauges, pinned log-scale latency histograms), a bounded flight
//!   recorder of structured trace events, and the injectable [`obs::Clock`]
//!   behind the rate metrics — recording is bitwise-invisible to every
//!   engine decision.
//! * [`api`] — a user-facing facade mirroring the Python API of Appendix F.
//!
//! ## Quality model
//!
//! Skyscraper never inspects pixels: it consumes a scalar quality metric the
//! user's UDFs report anyway (detector confidence, tracker failures). The
//! [`Workload`] trait captures exactly that contract, which is what lets this
//! reproduction replace real CV models with calibrated synthetic ones (see
//! `vetl-workloads`) without touching any decision logic.

pub mod api;
pub mod category;
pub mod config;
pub mod dedupe;
pub mod error;
pub mod fingerprint;
pub mod knob;
pub mod multistream;
pub mod obs;
pub mod offline;
pub mod online;
pub mod profile;
pub mod runtime;
pub mod serve;
#[doc(hidden)]
pub mod testkit;
pub mod workload;

pub use api::Skyscraper;
pub use category::ContentCategories;
pub use config::SkyscraperConfig;
pub use dedupe::{DedupCache, DedupPolicy, DedupStats};
pub use error::SkyError;
pub use fingerprint::content_signature;
pub use knob::{ConfigSpace, Knob, KnobConfig, KnobValue};
pub use multistream::{JointPlanRecord, MultiOutcome, StreamId, StreamOutcome};
pub use obs::{
    Clock, FlightRecorder, ManualClock, MetricsRegistry, MetricsSnapshot, MonotonicClock, Obs,
    TraceEvent,
};
pub use offline::{
    run_offline, CategoryArtifact, EvalMemo, FittedModel, ForecastArtifact, KnowledgeBase,
    OfflineArtifacts, OfflinePipeline, OfflineReport, PlanArtifact, ProfileArtifact,
};
pub use online::plan::KnobPlan;
pub use online::planner::plan_knobs;
pub use online::session::{
    ClassificationMode, ForecastMode, IngestOptions, IngestOutcome, IngestSession, ReorderStats,
    SessionCheckpoint, StepReport, StreamStats,
};
pub use online::switcher::{Decision, KnobSwitcher, SwitcherLimits};
pub use profile::{ConfigProfile, PlacementProfile};
pub use runtime::{
    DurabilityConfig, IngestRuntime, RecoveredStream, RecoveryReport, RuntimeConfig,
    RuntimeMetrics, StreamMetrics, StreamResolver,
};
pub use serve::{detect_cores, detect_shards, IngestService};
pub use workload::Workload;
