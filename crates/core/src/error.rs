//! Error types for the Skyscraper engine.

/// Errors surfaced by the offline and online phases.
#[derive(Debug, Clone, PartialEq)]
pub enum SkyError {
    /// The provisioned hardware cannot run even the cheapest knob
    /// configuration in real time — no throughput guarantee is possible.
    /// Carries the cheapest configuration's profiled work rate
    /// (core-seconds per second of video) and the cluster throughput.
    UnderProvisioned {
        /// Work rate of the cheapest configuration, core-s per stream-s.
        cheapest_work_rate: f64,
        /// Cluster throughput, core-s per wall-s.
        cluster_throughput: f64,
    },
    /// The offline phase was given insufficient data.
    InsufficientData {
        /// What was missing.
        what: &'static str,
    },
    /// A method requiring a fitted model was called before fitting.
    NotFitted,
    /// Workload declared no knobs / empty configuration space.
    EmptyConfigSpace,
    /// An externally planned session was pushed to before a plan was
    /// installed (`IngestSession::install_plan`).
    NoPlanInstalled,
    /// A multi-stream operation was invoked with no streams.
    NoStreams,
    /// Parallel multi-stream inputs disagree in length (one entry per
    /// stream expected).
    StreamCountMismatch {
        /// What the mismatched input holds.
        what: &'static str,
        /// Number of streams (models).
        expected: usize,
        /// Entries actually provided.
        got: usize,
    },
    /// A stream's forecast has the wrong number of categories for its model.
    ForecastShape {
        /// Stream index.
        stream: usize,
        /// The model's category count.
        expected: usize,
        /// The forecast's length.
        got: usize,
    },
    /// A server operation referenced a stream id that was never admitted.
    UnknownStream {
        /// The offending stream index.
        id: usize,
    },
    /// A segment was pushed to a stream that was already closed
    /// (`close_stream` or an in-band close marker).
    StreamClosed {
        /// The offending stream index.
        id: usize,
    },
    /// A stream's bounded ingress mailbox is full: the stream was already
    /// given a full planning epoch of segments and the barrier cannot fire
    /// until the lagging streams catch up. Typed backpressure — the caller
    /// should feed the other streams (or close them) and retry.
    Overloaded {
        /// The back-pressured stream index.
        stream: usize,
        /// Segments accepted into the epoch, processed or still queued.
        queued: usize,
        /// The epoch quota in segments.
        capacity: usize,
    },
    /// A segment arrived behind its stream's reorder watermark: segments up
    /// to `expected` were already released for processing (or declared
    /// lost), so this arrival can never be ingested in order. Terminal —
    /// late data cannot become timely by retrying; the stream itself keeps
    /// serving. Only raised when an out-of-order tolerance window
    /// ([`IngestOptions::reorder_window`](crate::IngestOptions::reorder_window))
    /// is configured; without one every arrival is processed as-is.
    LateSegment {
        /// The arriving segment's index.
        index: u64,
        /// The watermark: the next index the stream will release.
        expected: u64,
        /// The configured out-of-order tolerance window, segments.
        window: usize,
    },
    /// A stream admission was deferred under a synchronized open storm:
    /// `pending` streams were already admitted since the runtime last
    /// dispatched ingest work, reaching the configured flash-crowd cap.
    /// Retryable backpressure — push segments (letting an epoch dispatch)
    /// or wait, then re-open; the same admission then succeeds.
    AdmissionDeferred {
        /// Streams admitted since the last dispatch.
        pending: usize,
        /// The configured cap on admissions per dispatch interval.
        cap: usize,
    },
    /// A stream's segment failed while the runtime dispatched an epoch
    /// batch; carries the offending stream.
    PushFailed {
        /// The stream whose push failed.
        stream: usize,
        /// The underlying per-push error.
        source: Box<SkyError>,
    },
    /// A batched push failed partway through: the first `accepted` segments
    /// were accepted (journaled and enqueued, exactly as a per-segment push
    /// loop would have) before `source` stopped the batch. The caller resumes
    /// from `accepted` after resolving the cause — no accepted segment may be
    /// re-fed.
    BatchFailed {
        /// Segments of the batch accepted before the failure.
        accepted: usize,
        /// The error the per-segment push loop would have returned.
        source: Box<SkyError>,
    },
    /// A caller-supplied value is structurally invalid (non-positive segment
    /// length, zero categories, out-of-range label, …).
    InvalidInput {
        /// What was invalid.
        what: &'static str,
    },
    /// A workload evaluation produced a NaN or infinite statistic the
    /// offline phase cannot rank or plan over.
    NonFinite {
        /// Which statistic was non-finite.
        what: &'static str,
    },
    /// A persisted knowledge-base artifact was written by an incompatible
    /// codec version.
    ArtifactVersionMismatch {
        /// File kind ("model" or "fit").
        kind: &'static str,
        /// Version found in the file.
        found: u16,
        /// Version this build reads and writes.
        supported: u16,
    },
    /// A persisted model does not belong to this instance's workload
    /// (different name, knob space or knob registry) and must be refitted.
    StaleArtifact {
        /// What went stale.
        what: &'static str,
    },
    /// A knowledge-base file exists but cannot be decoded (bad magic,
    /// checksum mismatch, truncated or malformed payload).
    CorruptKnowledgeBase {
        /// Decoder context.
        detail: String,
    },
    /// An I/O error while reading or writing a knowledge base.
    KnowledgeBaseIo {
        /// The file or directory involved.
        path: String,
        /// The underlying error, stringified.
        detail: String,
    },
    /// The dedup cache was consulted under a scope or policy that does not
    /// match the one it was built with (different model/workload identity,
    /// different tolerance). Cached results would be answers to a
    /// *different* extraction question, so the consult is rejected typed
    /// instead of silently serving wrong bits. Terminal: re-sending the
    /// same mismatched consult yields the same rejection.
    CachePoisoned {
        /// What disagreed between the consult and the cache.
        detail: String,
    },
    /// A dedup cache hit aged past the staleness bound
    /// (`DedupPolicy::max_age_epochs`) between barriers. Retryable in the
    /// backpressure sense: the caller recomputes (refreshing the entry at
    /// the next barrier) and the same segment succeeds — the session does
    /// exactly that internally, counting the hit as stale.
    StaleHit {
        /// Epochs since the entry was published.
        age_epochs: u64,
        /// The policy's staleness bound.
        max_age_epochs: u64,
    },
    /// A runtime write-ahead log or checkpoint exists but cannot be decoded
    /// or replayed (bad magic, checksum mismatch mid-file, a replay that
    /// diverges from the journaled barrier sequence). A *torn tail* is not
    /// this error — unfinished trailing records are detected and discarded
    /// during recovery, because a crash mid-append is an expected shape.
    CorruptWal {
        /// Decoder / replay context.
        detail: String,
    },
    /// An I/O error while reading or writing the runtime's write-ahead log
    /// or checkpoint.
    WalIo {
        /// The file or directory involved.
        path: String,
        /// The underlying error, stringified.
        detail: String,
    },
}

impl SkyError {
    /// Whether the operation that produced this error can be retried
    /// verbatim once the engine makes progress. Retryable errors are the
    /// typed backpressure shapes — [`SkyError::Overloaded`] (a full
    /// mailbox), [`SkyError::StaleHit`] (recompute and
    /// refresh), and [`SkyError::AdmissionDeferred`] (a flash-crowd open
    /// storm; re-open once ingest dispatches) — plus the wrapper variants
    /// ([`SkyError::BatchFailed`], [`SkyError::PushFailed`]) whose *cause*
    /// is retryable. Everything else is terminal: re-sending the same
    /// input yields the same rejection (admission failures, closed or
    /// unknown streams, invalid input, corrupt persistence, …).
    ///
    /// The network front-end maps this directly onto the wire: a
    /// retryable error becomes a `Rejected { retryable: true, .. }` reply
    /// and the client backs off and re-feeds the unacknowledged suffix; a
    /// terminal error is surfaced to the caller unchanged.
    pub fn is_retryable(&self) -> bool {
        match self {
            SkyError::Overloaded { .. }
            | SkyError::StaleHit { .. }
            | SkyError::AdmissionDeferred { .. } => true,
            SkyError::BatchFailed { source, .. } | SkyError::PushFailed { source, .. } => {
                source.is_retryable()
            }
            _ => false,
        }
    }
}

impl std::fmt::Display for SkyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkyError::UnderProvisioned {
                cheapest_work_rate,
                cluster_throughput,
            } => write!(
                f,
                "under-provisioned: cheapest configuration needs {cheapest_work_rate:.2} core-s/s \
                 but the cluster only retires {cluster_throughput:.2} core-s/s"
            ),
            SkyError::InsufficientData { what } => {
                write!(f, "offline phase needs more data: {what}")
            }
            SkyError::NotFitted => write!(f, "Skyscraper must be fitted before online ingestion"),
            SkyError::EmptyConfigSpace => write!(f, "workload has an empty knob space"),
            SkyError::NoPlanInstalled => write!(
                f,
                "externally planned session has no plan installed; call install_plan first"
            ),
            SkyError::NoStreams => write!(f, "multi-stream operation needs at least one stream"),
            SkyError::StreamCountMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "multi-stream input mismatch: expected one {what} per stream ({expected}), got {got}"
            ),
            SkyError::ForecastShape {
                stream,
                expected,
                got,
            } => write!(
                f,
                "stream {stream}: forecast has {got} categories but the model has {expected}"
            ),
            SkyError::UnknownStream { id } => {
                write!(f, "stream id {id} was never admitted to this server")
            }
            SkyError::StreamClosed { id } => {
                write!(f, "stream id {id} is closed and accepts no more segments")
            }
            SkyError::Overloaded {
                stream,
                queued,
                capacity,
            } => write!(
                f,
                "stream {stream} is overloaded: mailbox holds {queued} of {capacity} segments \
                 and the epoch cannot dispatch until lagging streams catch up"
            ),
            SkyError::LateSegment {
                index,
                expected,
                window,
            } => write!(
                f,
                "segment {index} arrived behind the reorder watermark (next expected \
                 {expected}, tolerance window {window}); late data cannot be ingested in order"
            ),
            SkyError::AdmissionDeferred { pending, cap } => write!(
                f,
                "admission deferred: {pending} stream(s) already admitted since the last \
                 dispatch (flash-crowd cap {cap}); push segments or wait, then retry"
            ),
            SkyError::PushFailed { stream, source } => {
                write!(f, "push to stream {stream} failed: {source}")
            }
            SkyError::BatchFailed { accepted, source } => {
                write!(
                    f,
                    "batched push failed after {accepted} accepted segment(s): {source}"
                )
            }
            SkyError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            SkyError::NonFinite { what } => {
                write!(f, "non-finite statistic in the offline phase: {what}")
            }
            SkyError::ArtifactVersionMismatch {
                kind,
                found,
                supported,
            } => write!(
                f,
                "{kind} artifact has codec version {found}, this build supports {supported}"
            ),
            SkyError::StaleArtifact { what } => write!(
                f,
                "stale knowledge base: {what}; refit instead of loading it"
            ),
            SkyError::CorruptKnowledgeBase { detail } => {
                write!(f, "corrupt knowledge base: {detail}")
            }
            SkyError::KnowledgeBaseIo { path, detail } => {
                write!(f, "knowledge base I/O error at {path}: {detail}")
            }
            SkyError::CachePoisoned { detail } => {
                write!(f, "dedup cache consulted under a mismatched scope: {detail}")
            }
            SkyError::StaleHit {
                age_epochs,
                max_age_epochs,
            } => write!(
                f,
                "dedup hit is stale: entry is {age_epochs} epoch(s) old, bound is \
                 {max_age_epochs}; recompute and refresh"
            ),
            SkyError::CorruptWal { detail } => {
                write!(f, "corrupt write-ahead log: {detail}")
            }
            SkyError::WalIo { path, detail } => {
                write!(f, "write-ahead log I/O error at {path}: {detail}")
            }
        }
    }
}

// `PushFailed` deliberately renders its inner error in `Display` instead of
// exposing it through `Error::source` — error-chain reporters would print
// the cause twice otherwise.
impl std::error::Error for SkyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SkyError::UnderProvisioned {
            cheapest_work_rate: 3.0,
            cluster_throughput: 2.0,
        };
        assert!(e.to_string().contains("under-provisioned"));
        let e = SkyError::StreamCountMismatch {
            what: "forecast",
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("forecast"));
        let e = SkyError::ForecastShape {
            stream: 1,
            expected: 4,
            got: 3,
        };
        assert!(e.to_string().contains("stream 1"));
        assert!(SkyError::NoStreams.to_string().contains("at least one"));
        assert!(SkyError::UnknownStream { id: 7 }.to_string().contains('7'));
        assert!(SkyError::StreamClosed { id: 4 }.to_string().contains('4'));
        let e = SkyError::Overloaded {
            stream: 2,
            queued: 900,
            capacity: 900,
        };
        assert!(e.to_string().contains("overloaded"));
        assert!(e.to_string().contains("900"));
        let e = SkyError::PushFailed {
            stream: 5,
            source: Box::new(SkyError::NoPlanInstalled),
        };
        assert!(e.to_string().contains("stream 5"));
        assert!(e.to_string().contains("install_plan"));
        let e = SkyError::BatchFailed {
            accepted: 17,
            source: Box::new(SkyError::Overloaded {
                stream: 2,
                queued: 900,
                capacity: 900,
            }),
        };
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains("overloaded"));
        assert!(SkyError::NoPlanInstalled
            .to_string()
            .contains("install_plan"));
        let e = SkyError::ArtifactVersionMismatch {
            kind: "fit",
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("fit"));
        assert!(e.to_string().contains('9'));
        let e = SkyError::StaleArtifact {
            what: "persisted model belongs to a different workload",
        };
        assert!(e.to_string().contains("stale"));
        let e = SkyError::CorruptKnowledgeBase {
            detail: "bad magic".into(),
        };
        assert!(e.to_string().contains("bad magic"));
        let e = SkyError::KnowledgeBaseIo {
            path: "/tmp/kb".into(),
            detail: "denied".into(),
        };
        assert!(e.to_string().contains("/tmp/kb"));
        let e = SkyError::CachePoisoned {
            detail: "scope mismatch".into(),
        };
        assert!(e.to_string().contains("scope mismatch"));
        let e = SkyError::StaleHit {
            age_epochs: 5,
            max_age_epochs: 2,
        };
        assert!(e.to_string().contains("stale"));
        assert!(e.to_string().contains('5'));
        let e = SkyError::LateSegment {
            index: 3,
            expected: 9,
            window: 4,
        };
        assert!(e.to_string().contains("behind the reorder watermark"));
        assert!(e.to_string().contains('9'));
        let e = SkyError::AdmissionDeferred { pending: 8, cap: 8 };
        assert!(e.to_string().contains("admission deferred"));
        assert!(e.to_string().contains('8'));
        let e = SkyError::CorruptWal {
            detail: "checksum mismatch at record 7".into(),
        };
        assert!(e.to_string().contains("write-ahead log"));
        assert!(e.to_string().contains("record 7"));
        let e = SkyError::WalIo {
            path: "/tmp/wal".into(),
            detail: "denied".into(),
        };
        assert!(e.to_string().contains("/tmp/wal"));
        assert!(SkyError::NonFinite { what: "work_mean" }
            .to_string()
            .contains("work_mean"));
        assert!(SkyError::InvalidInput { what: "seg_len" }
            .to_string()
            .contains("seg_len"));
    }

    /// The full classification table behind [`SkyError::is_retryable`]:
    /// exactly the backpressure shapes (and wrappers around them) are
    /// retryable, every terminal error stays terminal even when wrapped.
    #[test]
    fn retryable_classification_table() {
        let retryable = [
            SkyError::Overloaded {
                stream: 0,
                queued: 900,
                capacity: 900,
            },
            SkyError::StaleHit {
                age_epochs: 5,
                max_age_epochs: 2,
            },
            SkyError::AdmissionDeferred { pending: 4, cap: 4 },
        ];
        for e in &retryable {
            assert!(e.is_retryable(), "{e} must be retryable");
            // Wrappers inherit the cause's classification.
            let batch = SkyError::BatchFailed {
                accepted: 3,
                source: Box::new(e.clone()),
            };
            assert!(batch.is_retryable(), "{batch} must be retryable");
            let push = SkyError::PushFailed {
                stream: 0,
                source: Box::new(e.clone()),
            };
            assert!(push.is_retryable(), "{push} must be retryable");
            // Double wrapping (batch of a failing per-stream push).
            let nested = SkyError::BatchFailed {
                accepted: 0,
                source: Box::new(SkyError::PushFailed {
                    stream: 0,
                    source: Box::new(e.clone()),
                }),
            };
            assert!(nested.is_retryable(), "{nested} must be retryable");
        }

        let terminal = [
            SkyError::UnderProvisioned {
                cheapest_work_rate: 3.0,
                cluster_throughput: 2.0,
            },
            SkyError::InsufficientData { what: "segments" },
            SkyError::NotFitted,
            SkyError::EmptyConfigSpace,
            SkyError::NoPlanInstalled,
            SkyError::NoStreams,
            SkyError::StreamCountMismatch {
                what: "forecast",
                expected: 2,
                got: 1,
            },
            SkyError::ForecastShape {
                stream: 0,
                expected: 3,
                got: 2,
            },
            SkyError::UnknownStream { id: 7 },
            SkyError::StreamClosed { id: 4 },
            SkyError::LateSegment {
                index: 2,
                expected: 5,
                window: 3,
            },
            SkyError::InvalidInput { what: "segment" },
            SkyError::NonFinite { what: "quality" },
            SkyError::ArtifactVersionMismatch {
                kind: "model",
                found: 2,
                supported: 1,
            },
            SkyError::StaleArtifact { what: "model" },
            SkyError::CorruptKnowledgeBase {
                detail: "bad magic".into(),
            },
            SkyError::KnowledgeBaseIo {
                path: "/tmp/kb".into(),
                detail: "denied".into(),
            },
            SkyError::CachePoisoned {
                detail: "tolerance 0.05 vs cache tolerance 0".into(),
            },
            SkyError::CorruptWal {
                detail: "checksum".into(),
            },
            SkyError::WalIo {
                path: "/tmp/wal".into(),
                detail: "denied".into(),
            },
        ];
        for e in &terminal {
            assert!(!e.is_retryable(), "{e} must be terminal");
            let batch = SkyError::BatchFailed {
                accepted: 3,
                source: Box::new(e.clone()),
            };
            assert!(!batch.is_retryable(), "{batch} must stay terminal");
            let push = SkyError::PushFailed {
                stream: 0,
                source: Box::new(e.clone()),
            };
            assert!(!push.is_retryable(), "{push} must stay terminal");
        }
    }
}
