//! Bounded per-stream ingress mailboxes.
//!
//! Each admitted stream owns one [`Mailbox`]: a FIFO of in-band
//! [`Envelope`]s with two bounds. The **epoch bound** ([`capacity`]) is
//! what turns overload into typed backpressure
//! ([`SkyError::Overloaded`](crate::error::SkyError::Overloaded)) instead of
//! silent lag: a producer can never race more than one epoch ahead of the
//! joint replanning barrier. The **batch bound** ([`MAILBOX_BATCH`]) caps
//! what sits in memory: the runtime dispatches as soon as any mailbox
//! holds a batch, so a queue never grows past it (a reorder-gate release,
//! which is accepted input and never dropped, is the one exception).
//! Close markers travel in-band, so a stream's closure point is pinned to
//! an exact position in its segment sequence — the property that keeps
//! churn deterministic under sharding.
//!
//! [`capacity`]: Mailbox::capacity

use std::collections::VecDeque;

use vetl_video::Segment;

/// Segments a mailbox holds before the runtime dispatches it, whatever the
/// epoch quota. On a 128-stream fleet at 10 800-segment epochs, 2 048
/// halves the peak RSS (≈ 322 → 157 MB) with ingest unchanged; 512 saves
/// only ≈ 12 MB more, since what remains is session state, for four times
/// the dispatches. Epoch quotas at or below it never reach it, so the
/// short-epoch deployments keep whole-epoch dispatch.
pub const MAILBOX_BATCH: usize = 2048;

/// An in-band mailbox message.
#[derive(Debug, Clone)]
pub(crate) enum Envelope {
    /// A video segment to ingest.
    Segment(Segment),
    /// Close marker: settle the stream after the segments queued before it.
    Close,
}

/// A bounded FIFO of pending input for one stream.
///
/// Capacity counts *segments* (the close marker is always accepted): the
/// runtime keeps it at what the stream may still queue before the epoch
/// bound — the rest of its current quota, the next epoch's quota while the
/// barrier is pending, or zero while a used-up stream waits for it.
#[derive(Debug)]
pub(crate) struct Mailbox {
    q: VecDeque<Envelope>,
    capacity: usize,
    segments: usize,
    close_queued: bool,
}

impl Mailbox {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            q: VecDeque::new(),
            capacity,
            segments: 0,
            close_queued: false,
        }
    }

    /// Segments the mailbox may hold before the epoch bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Re-bound the mailbox (after every dispatch and barrier). Already
    /// queued envelopes are never dropped.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Segments currently queued.
    pub(crate) fn segments_queued(&self) -> usize {
        self.segments
    }

    /// A close marker is queued.
    pub(crate) fn close_queued(&self) -> bool {
        self.close_queued
    }

    /// Envelopes queued, close marker included.
    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }

    /// The mailbox holds nothing at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The first queued envelope is a close marker.
    pub(crate) fn close_is_first(&self) -> bool {
        matches!(self.q.front(), Some(Envelope::Close))
    }

    /// Segments the mailbox can take before the epoch bound.
    pub(crate) fn room(&self) -> usize {
        self.capacity.saturating_sub(self.segments)
    }

    /// Segments the mailbox can take before it holds a batch.
    pub(crate) fn batch_room(&self) -> usize {
        MAILBOX_BATCH.saturating_sub(self.segments)
    }

    /// Enqueue a run of segments. Capacity is the caller's check, made
    /// before the run was journaled ([`room`](Self::room)): what arrives
    /// here is accepted input and is never dropped, so a reorder-gate
    /// release may overshoot the epoch quota — bounded by the gate window,
    /// and the dispatch loop tolerates `used > quota`.
    pub(crate) fn extend(&mut self, segs: &[Segment]) {
        self.q.extend(segs.iter().map(|s| Envelope::Segment(*s)));
        self.segments += segs.len();
    }

    /// Enqueue the in-band close marker (always accepted).
    pub(crate) fn push_close(&mut self) {
        self.q.push_back(Envelope::Close);
        self.close_queued = true;
    }

    /// Snapshot the queued envelopes in order (durable checkpoints).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Envelope> {
        self.q.iter()
    }

    /// Rebuild a mailbox from a snapshot: capacity, the queued envelopes in
    /// order, and the sticky close flag (which outlives a drained close
    /// marker, so it must be restored independently of the queue contents).
    pub(crate) fn restore(
        capacity: usize,
        envelopes: impl IntoIterator<Item = Envelope>,
        close_queued: bool,
    ) -> Self {
        let mut m = Self::new(capacity);
        for env in envelopes {
            match env {
                Envelope::Segment(seg) => {
                    m.q.push_back(Envelope::Segment(seg));
                    m.segments += 1;
                }
                Envelope::Close => m.q.push_back(Envelope::Close),
            }
        }
        m.close_queued = close_queued;
        m
    }

    /// Take the next envelope, in order.
    pub(crate) fn pop(&mut self) -> Option<Envelope> {
        let env = self.q.pop_front();
        if let Some(Envelope::Segment(_)) = env {
            self.segments -= 1;
        }
        env
    }

    /// Drop everything queued, keeping the allocation. The close flag
    /// intentionally stays set: a dropped or processed close marker means
    /// the stream is on its way to settled and accepts no new input.
    pub(crate) fn clear(&mut self) {
        self.q.clear();
        self.segments = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vetl_video::{ContentParams, Recording, SyntheticCamera};

    fn seg() -> Segment {
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(1), 2.0);
        Recording::record(&mut cam, 4.0).segments()[0]
    }

    #[test]
    fn room_counts_segments_but_not_close() {
        let s = seg();
        let mut m = Mailbox::new(2);
        assert_eq!(m.room(), 2);
        m.extend(&[s]);
        assert_eq!(m.room(), 1);
        m.extend(&[s]);
        assert_eq!((m.room(), m.segments_queued()), (0, 2));
        m.push_close();
        assert!(m.close_queued());
        assert_eq!(m.segments_queued(), 2);
        // Accepted input past the quota (a gate release) is kept, not
        // dropped, and leaves no room.
        m.extend(&[s, s]);
        assert_eq!((m.room(), m.segments_queued()), (0, 4));
    }

    #[test]
    fn pop_takes_in_order_and_close_survives_clear() {
        let s = seg();
        let mut m = Mailbox::new(4);
        assert!(!m.close_is_first());
        m.extend(&[s, s]);
        m.push_close();
        assert!(!m.close_is_first());
        assert!(matches!(m.pop(), Some(Envelope::Segment(_))));
        assert_eq!((m.segments_queued(), m.room()), (1, 3));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.segments_queued(), 0);
        assert!(m.close_queued(), "a dropped close still marks the stream");
        assert!(m.pop().is_none());
    }

    #[test]
    fn close_is_first_detects_boundary_markers() {
        let mut m = Mailbox::new(4);
        m.push_close();
        assert!(m.close_is_first());
    }

    #[test]
    fn batch_room_is_independent_of_the_epoch_bound() {
        let s = seg();
        let mut m = Mailbox::new(3 * MAILBOX_BATCH);
        m.extend(&vec![s; MAILBOX_BATCH - 1]);
        assert_eq!((m.batch_room(), m.room()), (1, 2 * MAILBOX_BATCH + 1));
        m.extend(&[s, s]);
        assert_eq!(m.batch_room(), 0, "a gate release may overshoot the batch");
        while m.pop().is_some() {}
        assert_eq!(m.batch_room(), MAILBOX_BATCH);
    }
}
