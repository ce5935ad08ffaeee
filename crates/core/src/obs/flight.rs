//! The flight recorder: a bounded ring buffer of structured trace events.
//!
//! Where the [registry](super::registry) answers "how much / how fast",
//! the flight recorder answers "what happened, in what order": epoch
//! opens and closes, admission verdicts with their reason, backpressure
//! rejections, plan-change deltas, recovery replay progress, and chaos
//! injections. Every event carries a monotonic sequence number stamped at
//! record time, so interleavings survive the dump even though the ring
//! only keeps the most recent `cap` events.
//!
//! The ring is dumpable on demand ([`FlightRecorder::dump`]) and
//! automatically on panic or runtime poisoning: the runtime's dispatch
//! path holds a [`PanicDumpGuard`] so an injected chaos crash (or a real
//! one) flushes the tail of history before unwinding — post-mortems of
//! chaos-harness failures read a timeline instead of printf archaeology.
//! Dumps go to the file named by `VETL_FLIGHT_DUMP` (append mode, so a
//! whole test process shares one timeline) or to stderr when unset.

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default event capacity of the ring ([`FlightRecorder::new`]).
pub const DEFAULT_FLIGHT_CAP: usize = 1024;

/// Environment variable naming the file flight dumps append to. When
/// unset, dumps go to stderr.
pub const FLIGHT_DUMP_ENV: &str = "VETL_FLIGHT_DUMP";

/// One structured trace event. Variants mirror the runtime's decision
/// points; payloads are the values the decision was made from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A planning epoch began (quota re-armed after a barrier).
    EpochOpen {
        /// The epoch now open.
        epoch: u64,
    },
    /// A planning epoch's quota was exhausted; the barrier will run.
    EpochClose {
        /// The epoch that closed.
        epoch: u64,
    },
    /// An admission check accepted a stream onto a slot.
    AdmissionAccepted {
        /// Slot the stream landed on.
        slot: usize,
        /// The stream's workload id.
        workload_id: String,
    },
    /// An admission check rejected a stream.
    AdmissionRejected {
        /// The rejected stream's workload id.
        workload_id: String,
        /// The runtime's rejection reason, verbatim.
        reason: String,
    },
    /// A push was refused with typed backpressure (mailbox full).
    Backpressure {
        /// Slot whose mailbox overflowed.
        slot: usize,
        /// Segments queued at rejection time.
        queued: usize,
        /// The mailbox bound that was hit.
        capacity: usize,
    },
    /// The joint LP installed a new plan at an epoch barrier.
    PlanChange {
        /// Epoch the plan was computed for.
        epoch: u64,
        /// Streams covered by the joint plan.
        streams: usize,
        /// Fair per-stream core share, cores.
        fair_cores: f64,
        /// Per-stream wallet lease, dollars.
        lease_usd: f64,
        /// Total per-segment cloud budget across streams, dollars.
        budget_per_seg_total: f64,
    },
    /// Crash recovery replayed another slice of the journal.
    ReplayProgress {
        /// Journal records re-driven so far.
        records: u64,
        /// Segments re-pushed so far.
        segments: u64,
    },
    /// The chaos harness injected a worker crash.
    ChaosCrash {
        /// Epoch the crash fired in.
        epoch: u64,
        /// Shard that hosted the crashing worker.
        shard: usize,
    },
    /// The chaos harness injected a wallet-refill outage.
    ChaosOutage {
        /// Epoch whose refill was skipped.
        epoch: u64,
    },
    /// The runtime poisoned itself (durability failure mid-apply).
    Poisoned {
        /// The poisoning error, verbatim.
        detail: String,
    },
    /// A stream was closed and its slot settled.
    StreamClosed {
        /// The settled slot.
        slot: usize,
    },
}

impl TraceEvent {
    /// Short stable tag for rendering and filtering.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::EpochOpen { .. } => "epoch_open",
            TraceEvent::EpochClose { .. } => "epoch_close",
            TraceEvent::AdmissionAccepted { .. } => "admission_accepted",
            TraceEvent::AdmissionRejected { .. } => "admission_rejected",
            TraceEvent::Backpressure { .. } => "backpressure",
            TraceEvent::PlanChange { .. } => "plan_change",
            TraceEvent::ReplayProgress { .. } => "replay_progress",
            TraceEvent::ChaosCrash { .. } => "chaos_crash",
            TraceEvent::ChaosOutage { .. } => "chaos_outage",
            TraceEvent::Poisoned { .. } => "poisoned",
            TraceEvent::StreamClosed { .. } => "stream_closed",
        }
    }
}

/// The bounded ring-buffer flight recorder. See the [module docs](crate::obs).
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    next_seq: AtomicU64,
    ring: Mutex<VecDeque<(u64, TraceEvent)>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAP)
    }
}

impl FlightRecorder {
    /// A recorder keeping the most recent `cap` events (min 1).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            next_seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Record one event, stamping the next monotonic sequence number.
    /// Never panics: a poisoned ring lock (a worker died mid-record) is
    /// recovered, because the recorder must keep working *especially*
    /// after a crash.
    pub fn record(&self, event: TraceEvent) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        // Stamp under the ring lock: a number taken before it lets two
        // threads enqueue 8 before 7, and eviction then pops an event that
        // is not the oldest.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back((seq, event));
    }

    /// Events recorded over the recorder's lifetime (including ones the
    /// ring has since evicted).
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// The retained `(sequence, event)` tail, oldest first.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Render the retained tail as one line per event.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (seq, ev) in self.events() {
            let _ = writeln!(out, "#{seq:06} {} {ev:?}", ev.tag());
        }
        out
    }

    /// Dump the retained tail, labeled with `reason`, to the file named
    /// by [`FLIGHT_DUMP_ENV`] (append) or to stderr when unset. I/O
    /// errors are swallowed — a dump must never turn one failure into two.
    pub fn dump(&self, reason: &str) {
        let body = format!(
            "=== flight recorder dump ({reason}; {} recorded, {} retained) ===\n{}=== end flight dump ===\n",
            self.recorded(),
            self.events().len(),
            self.render()
        );
        match std::env::var(FLIGHT_DUMP_ENV) {
            Ok(path) if !path.is_empty() => {
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                {
                    let _ = f.write_all(body.as_bytes());
                }
            }
            _ => {
                let _ = std::io::stderr().write_all(body.as_bytes());
            }
        }
    }

    /// A guard that dumps the ring if the current thread unwinds while
    /// holding it. The runtime arms one around each dispatch so chaos
    /// crashes flush their timeline before the panic propagates.
    pub fn panic_dump_guard(&self) -> PanicDumpGuard<'_> {
        PanicDumpGuard { recorder: self }
    }
}

/// See [`FlightRecorder::panic_dump_guard`].
#[derive(Debug)]
pub struct PanicDumpGuard<'a> {
    recorder: &'a FlightRecorder,
}

impl Drop for PanicDumpGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.recorder.dump("panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_cap_events() {
        let fr = FlightRecorder::new(3);
        for epoch in 0..5 {
            fr.record(TraceEvent::EpochOpen { epoch });
        }
        let events = fr.events();
        assert_eq!(events.len(), 3);
        assert_eq!(fr.recorded(), 5);
        assert_eq!(
            events,
            vec![
                (2, TraceEvent::EpochOpen { epoch: 2 }),
                (3, TraceEvent::EpochOpen { epoch: 3 }),
                (4, TraceEvent::EpochOpen { epoch: 4 }),
            ]
        );
    }

    #[test]
    fn sequence_numbers_are_monotonic_across_threads() {
        let fr = std::sync::Arc::new(FlightRecorder::new(4096));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let fr = fr.clone();
                s.spawn(move || {
                    for epoch in 0..256 {
                        fr.record(TraceEvent::EpochClose { epoch });
                    }
                });
            }
        });
        let events = fr.events();
        assert_eq!(events.len(), 1024);
        let mut seqs: Vec<u64> = events.iter().map(|(s, _)| *s).collect();
        let sorted = {
            let mut v = seqs.clone();
            v.sort_unstable();
            v
        };
        assert_eq!(seqs, sorted, "retained tail is ordered by sequence");
        seqs.dedup();
        assert_eq!(seqs.len(), 1024, "sequence numbers are unique");
    }

    #[test]
    fn render_tags_every_event() {
        let fr = FlightRecorder::default();
        fr.record(TraceEvent::AdmissionRejected {
            workload_id: "cam7".into(),
            reason: "fair share".into(),
        });
        fr.record(TraceEvent::Backpressure {
            slot: 2,
            queued: 64,
            capacity: 64,
        });
        let text = fr.render();
        assert!(text.contains("#000000 admission_rejected"));
        assert!(text.contains("#000001 backpressure"));
        assert!(text.contains("cam7"));
    }

    #[test]
    fn panic_guard_is_quiet_without_a_panic() {
        let fr = FlightRecorder::default();
        fr.record(TraceEvent::EpochOpen { epoch: 0 });
        {
            let _guard = fr.panic_dump_guard();
        }
        // Nothing to assert beyond "did not dump/panic"; the panic path is
        // exercised end-to-end by the chaos tests with VETL_FLIGHT_DUMP set.
        assert_eq!(fr.recorded(), 1);
    }
}
