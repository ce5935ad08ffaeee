//! The processing backlog behind the video buffer.
//!
//! Eq. 1 of the paper is Skyscraper's throughput guarantee: the bytes of
//! produced-but-unprocessed frames may never exceed the buffer size `B`.
//! [`Backlog`] tracks the FIFO of set-aside segments together with the
//! compute work still owed to them, so the ingestion loop can convert spare
//! core-seconds into freed buffer bytes; the online session checks Eq. 1
//! against [`Backlog::bytes`].

/// One set-aside chunk of video: its buffered bytes and the on-premise
/// core-seconds of work still owed before the bytes can be released.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BacklogEntry {
    bytes: f64,
    work_remaining: f64,
}

/// FIFO backlog of set-aside video.
///
/// `process(core_secs)` retires work head-first and frees bytes
/// *proportionally* to the work completed within each entry — the fluid
/// approximation the paper's own simulator uses (Appendix M.1 treats video
/// as a continuous stream of per-segment work items).
#[derive(Debug, Clone, Default)]
pub struct Backlog {
    entries: std::collections::VecDeque<BacklogEntry>,
    total_bytes: f64,
    total_work: f64,
}

impl Backlog {
    /// Empty backlog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a chunk with `bytes` buffered and `work` core-seconds owed.
    pub fn push(&mut self, bytes: f64, work: f64) {
        assert!(
            bytes >= 0.0 && work >= 0.0,
            "bytes/work must be non-negative"
        );
        self.entries.push_back(BacklogEntry {
            bytes,
            work_remaining: work,
        });
        self.total_bytes += bytes;
        self.total_work += work;
    }

    /// Spend up to `core_secs` of compute, returning the bytes freed.
    pub fn process(&mut self, mut core_secs: f64) -> f64 {
        assert!(core_secs >= 0.0, "cannot process negative work");
        let mut freed = 0.0;
        while core_secs > 0.0 {
            let Some(head) = self.entries.front_mut() else {
                break;
            };
            if head.work_remaining <= core_secs {
                core_secs -= head.work_remaining;
                self.total_work -= head.work_remaining;
                freed += head.bytes;
                self.total_bytes -= head.bytes;
                self.entries.pop_front();
            } else {
                let fraction = core_secs / head.work_remaining;
                let released = head.bytes * fraction;
                head.bytes -= released;
                head.work_remaining -= core_secs;
                self.total_work -= core_secs;
                self.total_bytes -= released;
                freed += released;
                core_secs = 0.0;
            }
        }
        // Guard against negative drift from float arithmetic.
        if self.entries.is_empty() {
            self.total_bytes = 0.0;
            self.total_work = 0.0;
        }
        freed
    }

    /// Outstanding buffered bytes.
    pub fn bytes(&self) -> f64 {
        self.total_bytes.max(0.0)
    }

    /// Outstanding core-seconds of work.
    pub fn work(&self) -> f64 {
        self.total_work.max(0.0)
    }

    /// Number of queued chunks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Snapshot the FIFO as `(bytes, work_remaining)` pairs, head first —
    /// the serialization surface for durable checkpoints.
    pub fn entries(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.entries.iter().map(|e| (e.bytes, e.work_remaining))
    }

    /// The raw aggregate `(bytes, work)` accumulators. Unlike
    /// [`bytes`](Self::bytes) / [`work`](Self::work) these are not clamped:
    /// `process` decrements the aggregates with different float operations
    /// than the per-entry fields, so a checkpoint must persist them verbatim
    /// — recomputing them as a sum over [`entries`](Self::entries) would not
    /// be bitwise faithful.
    pub fn raw_totals(&self) -> (f64, f64) {
        (self.total_bytes, self.total_work)
    }

    /// Rebuild a backlog from a snapshot captured with
    /// [`entries`](Self::entries) and [`raw_totals`](Self::raw_totals).
    /// The aggregates are restored verbatim, so the rebuilt backlog is
    /// indistinguishable from the snapshotted one.
    pub fn from_parts(
        entries: impl IntoIterator<Item = (f64, f64)>,
        raw_totals: (f64, f64),
    ) -> Self {
        let mut b = Self::new();
        for (bytes, work) in entries {
            b.push(bytes, work);
        }
        b.total_bytes = raw_totals.0;
        b.total_work = raw_totals.1;
        b
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_fifo_processing() {
        let mut q = Backlog::new();
        q.push(100.0, 10.0);
        q.push(200.0, 5.0);
        assert_eq!(q.bytes(), 300.0);
        assert_eq!(q.work(), 15.0);
        // Complete the first entry exactly.
        let freed = q.process(10.0);
        assert!((freed - 100.0).abs() < 1e-9);
        assert_eq!(q.len(), 1);
        // Half of the second entry.
        let freed = q.process(2.5);
        assert!((freed - 100.0).abs() < 1e-9);
        assert!((q.bytes() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn backlog_processing_more_than_work_empties_it() {
        let mut q = Backlog::new();
        q.push(50.0, 1.0);
        let freed = q.process(100.0);
        assert!((freed - 50.0).abs() < 1e-9);
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0.0);
        assert_eq!(q.work(), 0.0);
    }

    #[test]
    fn backlog_partial_processing_frees_proportionally() {
        let mut q = Backlog::new();
        q.push(100.0, 4.0);
        let freed = q.process(1.0);
        assert!((freed - 25.0).abs() < 1e-9);
        assert!((q.work() - 3.0).abs() < 1e-9);
    }
}
