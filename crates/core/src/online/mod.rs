//! The online ingestion phase (§4): predictive planning + reactive switching.
//!
//! The primary surface is the streaming [`session::IngestSession`] — push
//! segments as they arrive, read a [`session::StepReport`] per step, settle
//! with `finish()`. [`session::IngestSession::batch`] is the one-shot loop
//! over a pre-materialized stream.

pub mod drift;
pub mod plan;
pub mod planner;
pub mod session;
pub mod switcher;

pub use drift::DriftDetector;
pub use plan::KnobPlan;
pub use planner::plan_knobs;
pub use session::{
    ClassificationMode, ForecastMode, IngestOptions, IngestOutcome, IngestSession, ReorderStats,
    SessionCheckpoint, StepReport, StreamStats,
};
pub use switcher::{Decision, KnobSwitcher, SwitcherLimits};
