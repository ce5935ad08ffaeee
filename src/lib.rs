//! # vetl — Video Extract-Transform-Load (Skyscraper reproduction)
//!
//! Facade crate bundling the whole workspace of this from-scratch Rust
//! reproduction of *"Extract-Transform-Load for Video Streams"* (Kossmann et
//! al., VLDB 2023):
//!
//! * [`skyscraper`] — the paper's contribution: content-adaptive knob tuning
//!   with throughput guarantees (offline phase, knob planner, knob switcher,
//!   multi-stream generalization, user-facing API).
//! * [`video`] — the synthetic video substrate (content process, sources,
//!   codec models, recordings).
//! * [`sim`] — task graphs, placements, hardware, the Appendix-M simulator.
//! * [`ml`] — KMeans, GMM, and the feed-forward forecaster, from scratch.
//! * [`lp`] — the knob planner's threshold walk and its simplex test oracle.
//! * [`exec`] — a thread-pool actor executor (the Ray stand-in).
//! * [`workloads`] — COVID, MOT, MOSEI-HIGH/LONG and the EV example.
//! * [`baselines`] — Static, Chameleon*, VideoStorm* and the Optimum oracle.
//! * [`net`] — the framed socket front-end (TCP + Unix) serving the sharded
//!   ingest runtime to remote clients.
//!
//! See `examples/quickstart.rs` for the fastest way in, and DESIGN.md /
//! EXPERIMENTS.md for the paper-reproduction map.

pub use skyscraper;

pub use vetl_baselines as baselines;
pub use vetl_exec as exec;
pub use vetl_lp as lp;
pub use vetl_ml as ml;
pub use vetl_net as net;
pub use vetl_sim as sim;
pub use vetl_video as video;
pub use vetl_workloads as workloads;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use skyscraper::{
        ClassificationMode, DedupCache, DedupPolicy, DedupStats, DurabilityConfig, ForecastMode,
        IngestOptions, IngestOutcome, IngestRuntime, IngestSession, JointPlanRecord, Knob,
        KnobConfig, KnobPlan, KnobSwitcher, KnobValue, KnowledgeBase, OfflineArtifacts,
        OfflinePipeline, RecoveredStream, RecoveryReport, RuntimeConfig, RuntimeMetrics,
        SessionCheckpoint, SkyError, Skyscraper, SkyscraperConfig, StepReport, StreamId,
        StreamMetrics, StreamStats, Workload,
    };
    pub use skyscraper::{
        Clock, FlightRecorder, ManualClock, MetricsRegistry, MetricsSnapshot, MonotonicClock, Obs,
        TraceEvent,
    };
    pub use skyscraper::{IngestService, StreamOutcome};
    pub use vetl_net::{Endpoint, NetClient, NetClientConfig, NetServer, ServerConfig};
    pub use vetl_sim::{CostModel, HardwareSpec};
    pub use vetl_video::{ContentParams, Recording, Segment, SimTime, SyntheticCamera};
    pub use vetl_workloads::{CovidWorkload, EvWorkload, MoseiVariant, MoseiWorkload, MotWorkload};
}
