//! # vetl-sim — task graphs, hardware model and the Appendix-M simulator
//!
//! Skyscraper executes each knob configuration's **task graph** (a DAG of
//! UDFs) on a mix of on-premise cores and on-demand cloud workers. The paper
//! relies on a makespan **simulator** (Appendix M) in three places:
//!
//! 1. the offline *placement search* evaluates thousands of candidate
//!    placements without paying real cloud invocations (Appendix A.2),
//! 2. the ablation study (§5.4) and the design-decision study (Appendix B)
//!    run entirely on the simulator,
//! 3. the simulator itself is validated against real executions within ≈ 9 %
//!    (Figs. 22–23) — our reproduction validates it against the
//!    `vetl-exec` thread-pool executor instead of real hardware.
//!
//! This crate implements the simulator exactly as described in Appendix M.1:
//! per-core availability times, serialized uplink/downlink bandwidth
//! occupancy, cloud round-trip latency, and ready-time-ordered scheduling.
//! It also provides the [`buffer`] backlog that Skyscraper's throughput
//! guarantee (Eq. 1) is checked against and the [`trace`] records behind
//! Fig. 3.

pub mod buffer;
pub mod cost;
pub mod hardware;
pub mod makespan;
pub mod placement;
pub mod task;
pub mod trace;

pub use buffer::Backlog;
pub use cost::CostModel;
pub use hardware::{CloudSpec, ClusterSpec, HardwareSpec};
pub use makespan::{simulate, simulate_into, SimResult, SimScratch, SimStats};
pub use placement::{pareto_frontier, Placement, PlacementPoint};
pub use task::{NodeId, TaskGraph, TaskNode};
pub use trace::{Trace, TracePoint};
