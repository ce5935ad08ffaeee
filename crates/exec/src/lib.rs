//! # vetl-exec — thread-pool actor executor
//!
//! The original Skyscraper implementation maps every UDF onto Ray actors and
//! synchronizes them from the parent process with futures (§5.1, Appendix N).
//! This reproduction executes extraction on the Appendix-M simulator, so
//! futures are not emulated. What remains is the Rust stand-in for the
//! actors: a fixed-size [`ActorPool`] (one worker per emulated core) whose
//! scoped fan-outs run the offline phase and the ingest runtime's batch
//! dispatch, and a dependency-aware DAG runner used to validate the
//! simulator against *real* multi-threaded executions (Figs. 22–23).
//!
//! Running a task graph on an [`ActorPool`] of `n` workers where each task
//! sleeps its profiled duration reproduces, in real wall-clock time, the
//! scheduling behaviour of an `n`-core machine: the pool size enforces the
//! parallelism limit exactly like core count does.

pub mod dag;
pub mod pool;

pub use dag::{run_dag, DagRun, DagSpec};
pub use pool::ActorPool;
