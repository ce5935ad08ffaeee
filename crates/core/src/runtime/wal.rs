//! Write-ahead journal + checkpoint snapshots for the ingest runtime.
//!
//! Durability splits into two artifacts living beside the knowledge base in
//! one directory:
//!
//! * **`runtime.wal`** — an append-only journal of every *accepted* input
//!   event, written before the event mutates any state: stream admissions
//!   (`Open`, with the caller's [`IngestOptions`]), accepted segments
//!   (`Seg`), in-band closures (`Close`), the partial-epoch deliveries a
//!   mid-run admission forces (`Flush`), and epoch-barrier settlements
//!   (`Barrier`, an integrity cross-check for replay). Each record is framed
//!   `u32 len · u64 FNV-1a checksum · body` with a monotone sequence number
//!   in the body, reusing the knowledge-base codec primitives (little-endian
//!   integers, floats as raw bits).
//! * **`runtime.ckpt`** — a periodic snapshot of the *entire* runtime state:
//!   per-stream [`SessionCheckpoint`]s (RNG words included), mailbox
//!   contents, epoch bookkeeping, the joint-plan record, and the settled
//!   outcomes of closed slots. Written atomically (temp + rename, like every
//!   `*.kb` artifact) and stamped with the last journal sequence it covers,
//!   so the journal can be truncated without a coordination window: records
//!   below the stamp are simply skipped on recovery.
//!
//! ## Torn tails vs corruption
//!
//! A crash mid-append leaves a *torn tail*: a **final** record whose frame
//! overruns the file or whose checksum fails right at EOF. [`read_journal`]
//! detects the longest valid prefix, reports the discarded byte count, and
//! physically truncates the file — the lost suffix was never acknowledged
//! as durable, so the driver simply re-feeds it. Everything else — bad
//! magic on a full-size header, a checksum-bad record with settled records
//! *after* it (mid-file rot; truncating there would drop acknowledged
//! data), a checksum-valid record that fails to decode, a sequence jump —
//! is *corruption*, surfaced as typed [`SkyError::CorruptWal`], never a
//! panic.

use std::borrow::Cow;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use vetl_video::Segment;

use crate::dedupe::{self, DedupCache, DedupPolicy};
use crate::error::SkyError;
use crate::multistream::{JointPlanRecord, StreamOutcome};
use crate::offline::codec::{self, dec_opt, enc_opt, Dec, DecodeResult, Enc};
use crate::offline::kb::durable_replace;
use crate::online::session::{
    dec_options, dec_outcome, enc_options, enc_outcome, IngestOptions, SessionCheckpoint,
};

const WAL_MAGIC: &[u8; 6] = b"SKYWAL";
const CKPT_MAGIC: &[u8; 6] = b"SKYCKP";
// The journal and the checkpoint version independently, so a change to one
// format leaves files of the other readable.
// Journal v4: `Barrier` and `DedupHit` records land wherever a batch
// dispatch crosses the barrier, so a v3 journal could fail replay midway.
const WAL_VERSION: u16 = 4;
const CKPT_VERSION: u16 = 4;

/// Bytes of the journal's file header (magic + version). Public to the
/// crate so the chaos helpers can avoid tearing into the header.
pub(crate) const HEADER_LEN: u64 = 8;

/// Journal file inside a durability directory.
pub(crate) fn wal_file(dir: &Path) -> PathBuf {
    dir.join("runtime.wal")
}

/// Checkpoint file inside a durability directory.
pub(crate) fn ckpt_file(dir: &Path) -> PathBuf {
    dir.join("runtime.ckpt")
}

fn io_err(path: &Path, e: std::io::Error) -> SkyError {
    SkyError::WalIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn corrupt(detail: impl Into<String>) -> SkyError {
    SkyError::CorruptWal {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------
// Journal records.
// ---------------------------------------------------------------------

/// One journaled input event. Replaying the record stream through the
/// normal `open_stream` / `push` / `close_stream` path reproduces the
/// runtime's state exactly — the runtime is a deterministic function of
/// this sequence.
#[derive(Debug, Clone)]
pub(crate) enum WalRecord<'a> {
    /// A successful admission: slot index, caller id, caller options (as
    /// passed in — the per-slot seed derivation is re-applied on replay).
    Open {
        slot: usize,
        workload_id: String,
        options: IngestOptions,
    },
    /// A run of segments accepted together for one stream, borrowed from
    /// the caller's slice on the write side. On disk a 1-segment run is a
    /// `Seg` frame (kind 2) and a longer one a fused `SegBatch` frame
    /// (kind 7: one length/checksum header, one syscall, a count in front
    /// of the segments); which of the two a run was written as is an
    /// encoding detail — both decode to this variant, and a `SegBatch` of
    /// n is exactly n consecutive `Seg` frames for the same slot.
    Segs {
        slot: usize,
        segs: Cow<'a, [Segment]>,
    },
    /// An accepted in-band close marker.
    Close { slot: usize },
    /// The partial-epoch delivery an admission attempt forces *before* its
    /// validation (journaled even when the admission is then rejected —
    /// the delivery happened and moves the epoch structure).
    Flush,
    /// An epoch-barrier settlement: the epoch counter after the operation
    /// that crossed it. Replay re-derives barriers from the input records;
    /// this record only cross-checks that it reached the same epoch.
    Barrier { epoch: usize },
    /// The runtime's planning configuration, journaled as the journal's
    /// first record so a journal-only recovery restores the *run's* seed,
    /// budget, cost model, and overrides instead of silently trusting
    /// whatever `RuntimeConfig` the recovering caller passed.
    Config {
        seed: u64,
        shared_budget_usd: f64,
        cost_model: vetl_sim::CostModel,
        replan_interval: Option<f64>,
        total_cores: Option<f64>,
        dedup: Option<DedupPolicy>,
    },
    /// Cumulative dedup counters (hits and lookups summed over every slot,
    /// settled and active) right after a barrier settlement — journaled
    /// only when dedup is enabled. Like [`Barrier`](Self::Barrier), replay
    /// re-derives the counters from the input records and this record only
    /// cross-checks that the cache behaved bit-identically.
    DedupHit { hits: u64, lookups: u64 },
}

pub(crate) fn enc_segment(e: &mut Enc, s: &Segment) {
    e.u64(s.index);
    e.f64(s.duration);
    e.f64(s.content.time.as_secs());
    e.f64(s.content.difficulty);
    e.f64(s.content.activity);
    e.bool(s.content.event_active);
    e.f64(s.bytes);
}

pub(crate) fn dec_segment(d: &mut Dec) -> DecodeResult<Segment> {
    Ok(Segment {
        index: d.u64("segment index")?,
        duration: d.f64("segment duration")?,
        content: vetl_video::ContentState {
            time: vetl_video::SimTime::from_secs(d.f64("segment time")?),
            difficulty: d.f64("segment difficulty")?,
            activity: d.f64("segment activity")?,
            event_active: d.bool("segment event_active")?,
        },
        bytes: d.f64("segment bytes")?,
    })
}

fn encode_record(seq: u64, rec: &WalRecord) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(seq);
    match rec {
        WalRecord::Open {
            slot,
            workload_id,
            options,
        } => {
            e.u8(1);
            e.usize(*slot);
            e.str(workload_id);
            enc_options(&mut e, options);
        }
        WalRecord::Segs { slot, segs } => {
            let fused = segs.len() != 1;
            e.u8(if fused { 7 } else { 2 });
            e.usize(*slot);
            if fused {
                e.usize(segs.len());
            }
            for seg in segs.iter() {
                enc_segment(&mut e, seg);
            }
        }
        WalRecord::Close { slot } => {
            e.u8(3);
            e.usize(*slot);
        }
        WalRecord::Flush => e.u8(4),
        WalRecord::Barrier { epoch } => {
            e.u8(5);
            e.usize(*epoch);
        }
        WalRecord::Config {
            seed,
            shared_budget_usd,
            cost_model,
            replan_interval,
            total_cores,
            dedup,
        } => {
            e.u8(6);
            e.u64(*seed);
            e.f64(*shared_budget_usd);
            e.f64(cost_model.onprem_usd_per_core_hour);
            e.f64(cost_model.cloud_onprem_ratio);
            enc_opt(&mut e, replan_interval, |e, v| e.f64(*v));
            enc_opt(&mut e, total_cores, |e, v| e.f64(*v));
            enc_opt(&mut e, dedup, dedupe::enc_policy);
        }
        WalRecord::DedupHit { hits, lookups } => {
            e.u8(8);
            e.u64(*hits);
            e.u64(*lookups);
        }
    }
    e.into_bytes()
}

fn decode_record(body: &[u8]) -> DecodeResult<(u64, WalRecord<'static>)> {
    let mut d = Dec::new(body);
    let seq = d.u64("record seq")?;
    let rec = match d.u8("record kind")? {
        1 => WalRecord::Open {
            slot: d.usize("open slot")?,
            workload_id: d.str("open workload_id")?,
            options: dec_options(&mut d)?,
        },
        kind @ (2 | 7) => {
            let slot = d.usize("seg slot")?;
            // One encoded segment is 49 bytes (u64 + 5 f64 + bool) — the
            // length guard refuses a corrupt count before allocating.
            let n = match kind {
                2 => 1,
                _ => d.len(49, "seg batch len")?,
            };
            let segs = (0..n).map(|_| dec_segment(&mut d));
            WalRecord::Segs {
                slot,
                segs: Cow::Owned(segs.collect::<DecodeResult<_>>()?),
            }
        }
        3 => WalRecord::Close {
            slot: d.usize("close slot")?,
        },
        4 => WalRecord::Flush,
        5 => WalRecord::Barrier {
            epoch: d.usize("barrier epoch")?,
        },
        6 => WalRecord::Config {
            seed: d.u64("config seed")?,
            shared_budget_usd: d.f64("config shared_budget_usd")?,
            cost_model: vetl_sim::CostModel {
                onprem_usd_per_core_hour: d.f64("config onprem_usd_per_core_hour")?,
                cloud_onprem_ratio: d.f64("config cloud_onprem_ratio")?,
            },
            replan_interval: dec_opt(&mut d, "config replan_interval", |d| {
                d.f64("replan_interval")
            })?,
            total_cores: dec_opt(&mut d, "config total_cores", |d| d.f64("total_cores"))?,
            dedup: dec_opt(&mut d, "config dedup", dedupe::dec_policy)?,
        },
        8 => WalRecord::DedupHit {
            hits: d.u64("dedup hits")?,
            lookups: d.u64("dedup lookups")?,
        },
        k => return Err(format!("unknown record kind {k}")),
    };
    codec::expect_finished(&d, "journal record")?;
    Ok((seq, rec))
}

// ---------------------------------------------------------------------
// The journal writer.
// ---------------------------------------------------------------------

/// Append-only handle over `runtime.wal`. The file handle stays open for
/// the runtime's lifetime — a journal append on the segment hot path is
/// one `write` syscall, not an open/write/close round trip.
#[derive(Debug)]
pub(crate) struct Wal {
    path: PathBuf,
    file: fs::File,
    next_seq: u64,
    /// Bytes of settled (fully appended) frames, including the header —
    /// the rewind point when an append fails partway through its write.
    settled_len: u64,
    /// A failed append could not be rewound: the file may end in a partial
    /// frame, so no further frame may be appended after it (it would land
    /// after mid-file garbage and poison recovery). All further appends
    /// fail; recovery discards the torn tail as usual.
    broken: bool,
    /// Reusable frame buffer: the frame assembly on the per-segment hot
    /// path reuses one allocation (the record body itself is still encoded
    /// into a fresh Enc buffer).
    scratch: Vec<u8>,
}

impl Wal {
    /// Open (creating directory and file with a fresh header if needed) the
    /// journal for appending, continuing at `next_seq`.
    pub(crate) fn open(dir: &Path, next_seq: u64) -> Result<Self, SkyError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let path = wal_file(dir);
        if !path.exists() || fs::metadata(&path).map_err(|e| io_err(&path, e))?.len() == 0 {
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(WAL_MAGIC);
            header.extend_from_slice(&WAL_VERSION.to_le_bytes());
            fs::write(&path, header).map_err(|e| io_err(&path, e))?;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let settled_len = file.metadata().map_err(|e| io_err(&path, e))?.len();
        Ok(Self {
            path,
            file,
            next_seq,
            settled_len,
            broken: false,
            scratch: Vec::new(),
        })
    }

    /// Append one record; the whole frame is handed to the OS before this
    /// returns, so an event is only applied once it is journaled. Durability
    /// is against *process* crashes (the chaos harness's fault model):
    /// records live in the page cache until writeback, so a power loss can
    /// drop a journal suffix — which recovery then treats exactly like a
    /// torn tail (detected, truncated, re-fed by the driver).
    pub(crate) fn append(&mut self, rec: &WalRecord) -> Result<u64, SkyError> {
        if self.broken {
            return Err(corrupt(format!(
                "{}: journal ends in an unrewindable partial frame after a failed append; \
                 recover() the directory",
                self.path.display()
            )));
        }
        let seq = self.next_seq;
        let body = encode_record(seq, rec);
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.scratch
            .extend_from_slice(&codec::checksum(&body).to_le_bytes());
        self.scratch.extend_from_slice(&body);
        let frame = std::mem::take(&mut self.scratch);
        let r = self
            .file
            .write_all(&frame)
            .map_err(|e| io_err(&self.path, e));
        let frame_len = frame.len() as u64;
        self.scratch = frame;
        if let Err(e) = r {
            // A failed write_all may have left a partial frame behind.
            // Rewind to the last settled frame so a later (retried) append
            // cannot land after mid-file garbage; if even the rewind fails,
            // refuse all further appends instead.
            if self.file.set_len(self.settled_len).is_err() {
                self.broken = true;
            }
            return Err(e);
        }
        self.settled_len += frame_len;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// The sequence number the next append will use.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Force every journaled record to stable storage (`fdatasync`). Called
    /// around checkpoints; per-record fsync would bound ingest throughput
    /// at disk-flush latency, so the steady-state guarantee is
    /// process-crash durability (see [`append`](Self::append)).
    pub(crate) fn sync(&mut self) -> Result<(), SkyError> {
        self.file.sync_data().map_err(|e| io_err(&self.path, e))
    }

    /// Truncate the journal back to its header — called right after a
    /// checkpoint rename lands. A crash between the two leaves journal
    /// records the checkpoint already covers; their sequence numbers are
    /// below the checkpoint stamp, so recovery skips them.
    pub(crate) fn reset(&mut self) -> Result<(), SkyError> {
        self.file
            .set_len(HEADER_LEN)
            .map_err(|e| io_err(&self.path, e))?;
        self.settled_len = HEADER_LEN;
        Ok(())
    }
}

/// Result of scanning a journal.
#[derive(Debug)]
pub(crate) struct JournalScan {
    /// Valid records in order.
    pub(crate) records: Vec<(u64, WalRecord<'static>)>,
    /// Bytes of torn tail that were discarded (and physically truncated).
    pub(crate) discarded_bytes: u64,
}

/// Read the journal in `dir`, validate the record chain, truncate any torn
/// tail off the file, and return the valid records. A missing journal is an
/// empty scan; a header shorter than [`HEADER_LEN`] is treated as a crash
/// during creation (whole file discarded).
pub(crate) fn read_journal(dir: &Path) -> Result<JournalScan, SkyError> {
    let path = wal_file(dir);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalScan {
                records: Vec::new(),
                discarded_bytes: 0,
            })
        }
        Err(e) => return Err(io_err(&path, e)),
    };
    if (bytes.len() as u64) < HEADER_LEN {
        // Crash while writing the header: nothing was ever durable.
        fs::write(&path, b"").map_err(|e| io_err(&path, e))?;
        return Ok(JournalScan {
            records: Vec::new(),
            discarded_bytes: bytes.len() as u64,
        });
    }
    if &bytes[..6] != WAL_MAGIC {
        return Err(corrupt(format!("{}: bad magic", path.display())));
    }
    let version = u16::from_le_bytes([bytes[6], bytes[7]]);
    if version != WAL_VERSION {
        return Err(corrupt(format!(
            "{}: journal version {version}, this build supports {WAL_VERSION}",
            path.display()
        )));
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut prev_seq: Option<u64> = None;
    let valid_end = loop {
        if pos == bytes.len() {
            break pos;
        }
        if bytes.len() - pos < 12 {
            break pos; // torn frame header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let body_start = pos + 12;
        if len > bytes.len() - body_start {
            break pos; // torn body
        }
        let body = &bytes[body_start..body_start + len];
        if codec::checksum(body) != sum {
            // Appends are ordered, so a *torn* frame is necessarily the
            // file's final frame. A checksum-bad frame whose declared end
            // sits strictly before EOF has durably-acknowledged records
            // after it — that is mid-file rot, and silently truncating it
            // would drop acknowledged data. (A rotted length field can
            // still masquerade as an overrun above; under the process-crash
            // fault model that shape cannot occur, so the overrun branch
            // stays a tear.)
            if body_start + len < bytes.len() {
                return Err(corrupt(format!(
                    "{}: checksum mismatch mid-file at byte {pos} with {} settled bytes after it",
                    path.display(),
                    bytes.len() - body_start - len
                )));
            }
            break pos; // torn final record: discard it
        }
        // Checksum-valid: the record was settled, so a decode failure or a
        // sequence jump is corruption, not a torn tail.
        let (seq, rec) = decode_record(body)
            .map_err(|e| corrupt(format!("{}: record at byte {pos}: {e}", path.display())))?;
        if let Some(p) = prev_seq {
            if seq != p + 1 {
                return Err(corrupt(format!(
                    "{}: sequence jump {p} -> {seq} at byte {pos}",
                    path.display()
                )));
            }
        }
        prev_seq = Some(seq);
        records.push((seq, rec));
        pos = body_start + len;
    };

    let discarded = (bytes.len() - valid_end) as u64;
    if discarded > 0 {
        let f = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        f.set_len(valid_end as u64).map_err(|e| io_err(&path, e))?;
    }
    Ok(JournalScan {
        records,
        discarded_bytes: discarded,
    })
}

// ---------------------------------------------------------------------
// Checkpoint snapshots.
// ---------------------------------------------------------------------

/// Snapshot of one stream slot.
#[derive(Debug)]
pub(crate) enum SlotSnapshot {
    /// An active (or closing) stream: its session checkpoint, mailbox
    /// contents, and epoch bookkeeping.
    Active {
        id: String,
        session: Box<SessionCheckpoint>,
        mailbox_capacity: usize,
        /// Queued envelopes in order: `Some(seg)` or `None` for the close
        /// marker.
        envelopes: Vec<Option<Segment>>,
        close_queued: bool,
        used: usize,
        quota: usize,
        processed: usize,
    },
    /// A settled slot with its final outcome.
    Closed(StreamOutcome),
}

/// A full snapshot of the runtime at a consistent point (an API-call
/// boundary), stamped with the last journal sequence it covers.
#[derive(Debug)]
pub(crate) struct RuntimeSnapshot {
    /// The journal sequence the next append would have used when this
    /// snapshot was taken: records with `seq < covered_seq` are folded into
    /// the snapshot and skipped on recovery.
    pub(crate) covered_seq: u64,
    pub(crate) seed: u64,
    pub(crate) shared_budget_usd: f64,
    pub(crate) cost_model: vetl_sim::CostModel,
    pub(crate) replan_interval: Option<f64>,
    pub(crate) total_cores: Option<f64>,
    pub(crate) epoch: usize,
    pub(crate) joint_plans: usize,
    pub(crate) processed_total: usize,
    pub(crate) barrier_pending: bool,
    /// Streams admitted since the last epoch dispatch — the flash-crowd
    /// admission counter, so a recovered runtime enforces the cap from
    /// exactly where the original left off.
    pub(crate) opens_since_dispatch: usize,
    pub(crate) last_joint_plan: Option<JointPlanRecord>,
    /// The shared dedup cache — policy, epoch counter, and entries in
    /// sorted key order, so the snapshot bytes are deterministic.
    pub(crate) dedup: Option<DedupCache>,
    pub(crate) slots: Vec<SlotSnapshot>,
}

fn encode_snapshot(s: &RuntimeSnapshot) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(s.covered_seq);
    e.u64(s.seed);
    e.f64(s.shared_budget_usd);
    e.f64(s.cost_model.onprem_usd_per_core_hour);
    e.f64(s.cost_model.cloud_onprem_ratio);
    enc_opt(&mut e, &s.replan_interval, |e, v| e.f64(*v));
    enc_opt(&mut e, &s.total_cores, |e, v| e.f64(*v));
    e.usize(s.epoch);
    e.usize(s.joint_plans);
    e.usize(s.processed_total);
    e.bool(s.barrier_pending);
    e.usize(s.opens_since_dispatch);
    enc_opt(&mut e, &s.last_joint_plan, |e, p| {
        e.usizes(&p.streams);
        e.f64(p.budget_per_seg_total);
        e.f64(p.fair_cores);
        e.f64(p.lease_usd);
    });
    enc_opt(&mut e, &s.dedup, dedupe::enc_cache);
    e.usize(s.slots.len());
    for slot in &s.slots {
        match slot {
            SlotSnapshot::Active {
                id,
                session,
                mailbox_capacity,
                envelopes,
                close_queued,
                used,
                quota,
                processed,
            } => {
                e.u8(0);
                e.str(id);
                let bytes = session.encode();
                e.usize(bytes.len());
                e.raw(&bytes);
                e.usize(*mailbox_capacity);
                e.usize(envelopes.len());
                for env in envelopes {
                    enc_opt(&mut e, env, enc_segment);
                }
                e.bool(*close_queued);
                e.usize(*used);
                e.usize(*quota);
                e.usize(*processed);
            }
            SlotSnapshot::Closed(o) => {
                e.u8(1);
                e.str(&o.workload_id);
                enc_outcome(&mut e, &o.outcome);
            }
        }
    }
    e.into_bytes()
}

fn decode_snapshot(bytes: &[u8]) -> DecodeResult<RuntimeSnapshot> {
    let mut d = Dec::new(bytes);
    let covered_seq = d.u64("snapshot covered_seq")?;
    let seed = d.u64("snapshot seed")?;
    let shared_budget_usd = d.f64("snapshot shared_budget_usd")?;
    let cost_model = vetl_sim::CostModel {
        onprem_usd_per_core_hour: d.f64("snapshot onprem_usd_per_core_hour")?,
        cloud_onprem_ratio: d.f64("snapshot cloud_onprem_ratio")?,
    };
    let replan_interval = dec_opt(&mut d, "snapshot replan_interval", |d| {
        d.f64("replan_interval")
    })?;
    let total_cores = dec_opt(&mut d, "snapshot total_cores", |d| d.f64("total_cores"))?;
    let epoch = d.usize("snapshot epoch")?;
    let joint_plans = d.usize("snapshot joint_plans")?;
    let processed_total = d.usize("snapshot processed_total")?;
    let barrier_pending = d.bool("snapshot barrier_pending")?;
    let opens_since_dispatch = d.usize("snapshot opens_since_dispatch")?;
    let last_joint_plan = dec_opt(&mut d, "snapshot joint plan", |d| {
        Ok(JointPlanRecord {
            streams: d.usizes("plan streams")?,
            budget_per_seg_total: d.f64("plan budget")?,
            fair_cores: d.f64("plan fair_cores")?,
            lease_usd: d.f64("plan lease_usd")?,
        })
    })?;
    let dedup = dec_opt(&mut d, "snapshot dedup cache", dedupe::dec_cache)?;
    let n = d.len(1, "snapshot slots")?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(match d.u8("slot tag")? {
            0 => {
                let id = d.str("slot id")?;
                let len = d.len(1, "slot session")?;
                let session_bytes = d.take(len, "slot session")?;
                let session = Box::new(SessionCheckpoint::decode(session_bytes)?);
                let mailbox_capacity = d.usize("slot mailbox capacity")?;
                let n_env = d.len(1, "slot envelopes")?;
                let mut envelopes = Vec::with_capacity(n_env);
                for _ in 0..n_env {
                    envelopes.push(dec_opt(&mut d, "slot envelope", dec_segment)?);
                }
                SlotSnapshot::Active {
                    id,
                    session,
                    mailbox_capacity,
                    envelopes,
                    close_queued: d.bool("slot close_queued")?,
                    used: d.usize("slot used")?,
                    quota: d.usize("slot quota")?,
                    processed: d.usize("slot processed")?,
                }
            }
            1 => SlotSnapshot::Closed(StreamOutcome {
                workload_id: d.str("slot workload_id")?,
                outcome: dec_outcome(&mut d)?,
            }),
            t => return Err(format!("unknown slot tag {t}")),
        });
    }
    codec::expect_finished(&d, "runtime snapshot")?;
    Ok(RuntimeSnapshot {
        covered_seq,
        seed,
        shared_budget_usd,
        cost_model,
        replan_interval,
        total_cores,
        epoch,
        joint_plans,
        processed_total,
        barrier_pending,
        opens_since_dispatch,
        last_joint_plan,
        dedup,
        slots,
    })
}

/// Atomically and durably persist a snapshot (temp + fsync + rename +
/// directory fsync, framed and checksummed like every knowledge-base
/// artifact). The directory fsync makes the rename survive a power cut
/// before the caller truncates the journal the snapshot covers.
pub(crate) fn write_snapshot(dir: &Path, snapshot: &RuntimeSnapshot) -> Result<(), SkyError> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let payload = encode_snapshot(snapshot);
    let mut bytes = Vec::with_capacity(payload.len() + 24);
    bytes.extend_from_slice(CKPT_MAGIC);
    bytes.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&codec::checksum(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    // Snapshots are rare (epoch cadence), so they can afford the fsyncs
    // the per-record journal path deliberately skips.
    let path = ckpt_file(dir);
    durable_replace(&path, &path.with_extension("ckpt.tmp"), &bytes).map_err(|(p, e)| io_err(&p, e))
}

/// Load the checkpoint in `dir`, if any. The rename-based write protocol
/// means a checkpoint is either absent, or complete — so any decode failure
/// here is real corruption, surfaced typed.
pub(crate) fn read_snapshot(dir: &Path) -> Result<Option<RuntimeSnapshot>, SkyError> {
    let path = ckpt_file(dir);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path, e)),
    };
    let ctx = |detail: String| corrupt(format!("{}: {detail}", path.display()));
    if bytes.len() < 24 {
        return Err(ctx("checkpoint shorter than its header".into()));
    }
    if &bytes[..6] != CKPT_MAGIC {
        return Err(ctx("bad magic".into()));
    }
    let version = u16::from_le_bytes([bytes[6], bytes[7]]);
    if version != CKPT_VERSION {
        return Err(ctx(format!(
            "checkpoint version {version}, this build supports {CKPT_VERSION}"
        )));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let sum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = &bytes[24..];
    if payload.len() != len {
        return Err(ctx(format!(
            "payload is {} bytes, header claims {len}",
            payload.len()
        )));
    }
    if codec::checksum(payload) != sum {
        return Err(ctx("checksum mismatch".into()));
    }
    decode_snapshot(payload).map(Some).map_err(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkyscraperConfig;
    use crate::offline::{run_offline, FittedModel};
    use crate::online::session::{ClassificationMode, IngestSession};
    use crate::runtime::{DurabilityConfig, IngestRuntime, RuntimeConfig, StreamId};
    use crate::testkit::ToyWorkload;
    use vetl_sim::HardwareSpec;
    use vetl_video::{ContentParams, Recording, SyntheticCamera};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vetl-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seg(i: u64) -> Segment {
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(1), 2.0);
        let mut s = Recording::record(&mut cam, 8.0).segments()[i as usize % 4];
        s.index = i;
        s
    }

    fn sample_records() -> Vec<WalRecord<'static>> {
        vec![
            WalRecord::Flush,
            WalRecord::Open {
                slot: 0,
                workload_id: "cam-0".into(),
                options: IngestOptions::default(),
            },
            WalRecord::Barrier { epoch: 1 },
            WalRecord::Segs {
                slot: 0,
                segs: vec![seg(0)].into(),
            },
            WalRecord::Segs {
                slot: 0,
                segs: vec![seg(1), seg(2)].into(),
            },
            WalRecord::DedupHit {
                hits: 3,
                lookups: 9,
            },
            WalRecord::Close { slot: 0 },
        ]
    }

    #[test]
    fn journal_roundtrips_records_in_order() {
        let dir = tmpdir("roundtrip");
        let mut wal = Wal::open(&dir, 0).expect("open");
        for rec in &sample_records() {
            wal.append(rec).expect("append");
        }
        assert_eq!(wal.next_seq(), 7);
        let scan = read_journal(&dir).expect("scan");
        assert_eq!(scan.discarded_bytes, 0);
        assert_eq!(scan.records.len(), 7);
        for (i, (seq, rec)) in scan.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            match (rec, &sample_records()[i]) {
                (WalRecord::Flush, WalRecord::Flush) => {}
                (
                    WalRecord::Open {
                        slot,
                        workload_id,
                        options,
                    },
                    WalRecord::Open {
                        slot: s2,
                        workload_id: w2,
                        options: o2,
                    },
                ) => {
                    assert_eq!(slot, s2);
                    assert_eq!(workload_id, w2);
                    assert_eq!(options.seed, o2.seed);
                    assert_eq!(
                        options.cloud_budget_usd.to_bits(),
                        o2.cloud_budget_usd.to_bits()
                    );
                }
                (WalRecord::Barrier { epoch }, WalRecord::Barrier { epoch: e2 }) => {
                    assert_eq!(epoch, e2)
                }
                (WalRecord::Segs { slot, segs }, WalRecord::Segs { slot: s2, segs: g2 }) => {
                    assert_eq!(slot, s2);
                    assert_eq!(segs.len(), g2.len());
                    for (seg, g2) in segs.iter().zip(g2.iter()) {
                        assert_eq!(seg.identity_words(), g2.identity_words());
                    }
                }
                (WalRecord::Close { slot }, WalRecord::Close { slot: s2 }) => {
                    assert_eq!(slot, s2)
                }
                (
                    WalRecord::DedupHit { hits, lookups },
                    WalRecord::DedupHit {
                        hits: h2,
                        lookups: l2,
                    },
                ) => {
                    assert_eq!(hits, h2);
                    assert_eq!(lookups, l2);
                }
                (a, b) => panic!("record {i} mismatch: {a:?} vs {b:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Which frame kind a run is written as is decided here and nowhere
    /// else: one segment is a `Seg` frame (kind 2, no count), more are one
    /// `SegBatch` frame (kind 7). Both kinds keep decoding to the same
    /// record — including the 1-segment `SegBatch` earlier builds wrote for
    /// every 1-segment batched push.
    #[test]
    fn run_length_picks_the_frame_kind_and_both_kinds_decode() {
        let run = |n: u64| WalRecord::Segs {
            slot: 3,
            segs: (0..n).map(seg).collect::<Vec<_>>().into(),
        };
        let one = encode_record(0, &run(1));
        let two = encode_record(0, &run(2));
        assert_eq!((one[8], one.len()), (2, 8 + 1 + 8 + 49));
        assert_eq!((two[8], two.len()), (7, 8 + 1 + 8 + 8 + 2 * 49));

        // A 1-segment SegBatch, hand-framed: seq · kind 7 · slot · count 1.
        let mut old = one[..8].to_vec();
        old.push(7);
        old.extend_from_slice(&one[9..17]);
        old.extend_from_slice(&1u64.to_le_bytes());
        old.extend_from_slice(&one[17..]);
        for body in [&one, &old] {
            match decode_record(body).expect("decode") {
                (0, WalRecord::Segs { slot: 3, segs }) => {
                    assert_eq!(segs.len(), 1);
                    assert_eq!(segs[0].identity_words(), seg(0).identity_words());
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
    }

    /// The 49-byte segment wire image is a compatibility surface: journals
    /// written by earlier builds must keep decoding, so the encoding is
    /// pinned against hand-written little-endian bytes — not just a
    /// round-trip, which would also pass if both directions drifted
    /// together. The same test nails the codec to
    /// [`Segment::identity_words`]: the wire fields are exactly the
    /// identity fields in exactly the identity order, so fingerprints and
    /// codecs can never disagree about what "the same segment" means.
    #[test]
    fn segment_encoding_is_pinned_byte_for_byte() {
        let s = Segment {
            index: 0x0123_4567_89AB_CDEF,
            duration: 2.0,
            content: vetl_video::ContentState {
                time: vetl_video::SimTime::from_secs(6.0),
                difficulty: 0.5,
                activity: 0.25,
                event_active: true,
            },
            bytes: 3.5e6,
        };
        let mut e = Enc::new();
        enc_segment(&mut e, &s);
        let got = e.into_bytes();

        let mut want = Vec::new();
        want.extend_from_slice(&0x0123_4567_89AB_CDEF_u64.to_le_bytes());
        for v in [2.0_f64, 6.0, 0.5, 0.25] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        want.push(1); // event_active
        want.extend_from_slice(&3.5e6_f64.to_le_bytes());
        assert_eq!(want.len(), 49);
        assert_eq!(got, want, "segment wire image drifted");

        // Codec ↔ identity: decoding the wire words in order must
        // reproduce `identity_words` verbatim.
        let words = s.identity_words();
        let wire_words: Vec<u64> = [
            u64::from_le_bytes(got[0..8].try_into().unwrap()),
            u64::from_le_bytes(got[8..16].try_into().unwrap()),
            u64::from_le_bytes(got[16..24].try_into().unwrap()),
            u64::from_le_bytes(got[24..32].try_into().unwrap()),
            u64::from_le_bytes(got[32..40].try_into().unwrap()),
            got[40] as u64,
            u64::from_le_bytes(got[41..49].try_into().unwrap()),
        ]
        .to_vec();
        assert_eq!(wire_words, words.to_vec(), "codec and identity disagree");

        // And the decoder inverts the pinned bytes to the same segment.
        let mut d = Dec::new(&got);
        let back = dec_segment(&mut d).expect("decode pinned bytes");
        assert_eq!(back.identity_words(), words);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated_at_every_cut() {
        let dir = tmpdir("torn");
        let mut wal = Wal::open(&dir, 0).expect("open");
        for rec in &sample_records() {
            wal.append(rec).expect("append");
        }
        let full = fs::read(wal_file(&dir)).expect("read");
        // Cut the file at every byte boundary: the scan must never error,
        // never panic, and always yield a prefix of the record stream.
        for cut in (HEADER_LEN as usize)..full.len() {
            fs::write(wal_file(&dir), &full[..cut]).expect("write cut");
            let scan = read_journal(&dir).expect("scan must not fail on a torn tail");
            assert!(scan.records.len() <= 7);
            for (i, (seq, _)) in scan.records.iter().enumerate() {
                assert_eq!(*seq, i as u64, "prefix property at cut {cut}");
            }
            // The torn bytes were physically removed.
            let len = fs::metadata(wal_file(&dir)).expect("meta").len();
            assert_eq!(len as usize + scan.discarded_bytes as usize, cut);
            // A second scan sees a clean file.
            assert_eq!(read_journal(&dir).expect("rescan").discarded_bytes, 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_typed_never_a_panic() {
        let dir = tmpdir("corrupt");
        let mut wal = Wal::open(&dir, 0).expect("open");
        for rec in &sample_records() {
            wal.append(rec).expect("append");
        }
        let full = fs::read(wal_file(&dir)).expect("read");

        // Mid-file rot — a bad record with settled records after it — is
        // typed corruption, never a silent truncation of acknowledged data.
        let mut bad = full.clone();
        bad[HEADER_LEN as usize + 12] ^= 0xA5; // first record's body
        fs::write(wal_file(&dir), &bad).expect("write");
        assert!(matches!(
            read_journal(&dir).unwrap_err(),
            SkyError::CorruptWal { .. }
        ));

        // Bad magic on a full header: typed corruption.
        let mut bad = full.clone();
        bad[0] = b'X';
        fs::write(wal_file(&dir), &bad).expect("write");
        assert!(matches!(
            read_journal(&dir).unwrap_err(),
            SkyError::CorruptWal { .. }
        ));

        // Future version: typed corruption.
        let mut bad = full.clone();
        bad[6] = 0xFF;
        fs::write(wal_file(&dir), &bad).expect("write");
        assert!(matches!(
            read_journal(&dir).unwrap_err(),
            SkyError::CorruptWal { .. }
        ));

        // A flipped byte anywhere in the body: either a shortened valid
        // prefix (checksum discard) or a typed error — never a panic.
        for i in ((HEADER_LEN as usize)..full.len()).step_by(7) {
            let mut bad = full.clone();
            bad[i] ^= 0xA5;
            fs::write(wal_file(&dir), &bad).expect("write");
            match read_journal(&dir) {
                Ok(scan) => assert!(scan.records.len() <= 7),
                Err(SkyError::CorruptWal { .. }) => {}
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_truncates_to_header_and_seq_continues() {
        let dir = tmpdir("reset");
        let mut wal = Wal::open(&dir, 0).expect("open");
        for rec in &sample_records() {
            wal.append(rec).expect("append");
        }
        wal.reset().expect("reset");
        assert_eq!(
            fs::metadata(wal_file(&dir)).expect("meta").len(),
            HEADER_LEN
        );
        wal.append(&WalRecord::Flush).expect("append after reset");
        let scan = read_journal(&dir).expect("scan");
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].0, 7, "sequence numbers keep counting");
        let _ = fs::remove_dir_all(&dir);
    }

    // ---- Format guards: each file changes only on purpose. ----

    /// The toy model and an online recording longer than two planned
    /// intervals (`fast_test`: 4 h = 7 200 segments per interval).
    fn toy() -> (ToyWorkload, FittedModel, Vec<Segment>) {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        let (model, _) = run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(2),
            &SkyscraperConfig::fast_test(),
        )
        .expect("fit");
        let online = Recording::record(&mut cam, 4.2 * 3_600.0);
        (w, model, online.segments().to_vec())
    }

    /// 60-segment epochs, a snapshot at every barrier.
    fn durable_cfg(dir: &Path) -> RuntimeConfig {
        RuntimeConfig {
            shards: 1,
            replan_interval_secs: Some(120.0),
            durability: Some(DurabilityConfig::new(dir)),
            ..RuntimeConfig::default()
        }
    }

    /// A durable runtime serves one toy stream through a few epochs, so a
    /// real `runtime.ckpt` lands in `dir`, then drops without `finish` (a
    /// crash).
    fn serve_and_crash(dir: &Path, model: &FittedModel, w: &ToyWorkload, segs: &[Segment]) {
        let mut rt = IngestRuntime::new(durable_cfg(dir));
        let id = rt
            .open_stream("cam-0", model, w, IngestOptions::default())
            .expect("open");
        for seg in &segs[..200] {
            rt.push(id, seg).expect("push");
        }
    }

    #[test]
    fn checkpoint_is_v4_and_a_fresh_journal_is_v4() {
        let dir = tmpdir("headers");
        Wal::open(&dir, 0).expect("open");
        assert_eq!(fs::read(wal_file(&dir)).expect("read"), b"SKYWAL\x04\x00");
        fs::remove_dir_all(&dir).expect("clean");

        let (w, model, segs) = toy();
        serve_and_crash(&dir, &model, &w, &segs);
        let ckpt = fs::read(ckpt_file(&dir)).expect("a snapshot was written");
        assert_eq!(&ckpt[..8], b"SKYCKP\x04\x00");
        assert_eq!(
            &fs::read(wal_file(&dir)).expect("read")[..8],
            b"SKYWAL\x04\x00"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The session checkpoint's bytes for a fixed toy session, after pushes
    /// across two planned intervals (so the internal planner ran twice). A
    /// layout change here is a checkpoint format change: bump
    /// `CKPT_VERSION`. A content change with the layout kept (what a
    /// session retains) re-pins without a bump.
    #[test]
    fn session_checkpoint_bytes_are_pinned() {
        let (w, model, segs) = toy();
        let mut session = IngestSession::new(&model, &w, IngestOptions::default());
        for seg in &segs[..7_300] {
            session.push(seg).expect("push");
        }
        assert_eq!(session.plans(), 2, "initial plan + one interval replan");
        let bytes = session.checkpoint().encode();
        assert_eq!(
            (bytes.len(), codec::checksum(&bytes)),
            (95_910, 0x4561_4561_a4e2_8bc8),
            "SessionCheckpoint::encode drifted"
        );
    }

    /// A runtime snapshot whose sessions carry the untrimmed lists a build
    /// without bounded retention wrote (the whole observed history, every
    /// ground-truth category) recovers to the same outcome, bitwise, as the
    /// trimmed snapshot this build wrote, and as the uninterrupted run.
    #[test]
    fn untrimmed_snapshot_recovers_like_the_trimmed_one() {
        let (w, model, segs) = toy();
        // Ground-truth classification makes the observed history the
        // ground truth, so it can be rebuilt outside the runtime.
        let opts = IngestOptions {
            classification: ClassificationMode::GroundTruth,
            ..Default::default()
        };
        let (crash_at, total) = (2_000, 2_600);
        let serve = |rt: &mut IngestRuntime<'_>, from: usize, to: usize| {
            for seg in &segs[from..to] {
                rt.push(StreamId::from_index(0), seg).expect("push");
            }
        };
        let uninterrupted = {
            let dir = tmpdir("untrimmed-straight");
            let mut rt = IngestRuntime::new(durable_cfg(&dir));
            rt.open_stream("cam-0", &model, &w, opts.clone())
                .expect("open");
            serve(&mut rt, 0, total);
            let out = rt.finish().expect("finish");
            let _ = fs::remove_dir_all(&dir);
            out
        };

        let trimmed_dir = tmpdir("untrimmed-trimmed");
        {
            let mut rt = IngestRuntime::new(durable_cfg(&trimmed_dir));
            rt.open_stream("cam-0", &model, &w, opts.clone())
                .expect("open");
            serve(&mut rt, 0, crash_at);
        }
        // The same directory with every session checkpoint untrimmed.
        let untrimmed_dir = tmpdir("untrimmed-full");
        fs::create_dir_all(&untrimmed_dir).expect("mkdir");
        for entry in fs::read_dir(&trimmed_dir).expect("ls") {
            let path = entry.expect("entry").path();
            fs::copy(&path, untrimmed_dir.join(path.file_name().expect("name"))).expect("copy");
        }
        let mut snap = read_snapshot(&untrimmed_dir)
            .expect("read")
            .expect("a snapshot was written");
        let mut untrimmed = 0;
        for slot in &mut snap.slots {
            if let SlotSnapshot::Active { session, .. } = slot {
                let n = session.segments_pushed();
                assert!(n > 900, "the history was trimmed before the snapshot");
                let gt: Vec<usize> = segs[..n]
                    .iter()
                    .map(|s| model.ground_truth_category(&w, &s.content))
                    .collect();
                let mut full = model.tail.categories.clone();
                full.extend_from_slice(&gt);
                **session = (**session).clone().with_full_history(full, gt);
                untrimmed += 1;
            }
        }
        assert_eq!(untrimmed, 1);
        write_snapshot(&untrimmed_dir, &snap).expect("write");
        assert!(
            fs::metadata(ckpt_file(&untrimmed_dir)).expect("stat").len()
                > fs::metadata(ckpt_file(&trimmed_dir)).expect("stat").len()
        );

        let resolve =
            |_: usize, _: &str| Some((&model, &w as &(dyn crate::workload::Workload + '_)));
        for dir in [&trimmed_dir, &untrimmed_dir] {
            let (mut rt, report) =
                IngestRuntime::recover(durable_cfg(dir), &resolve).expect("recover");
            assert!(report.resumed_from_snapshot);
            serve(&mut rt, report.streams[0].accepted_segments, total);
            let out = rt.finish().expect("finish");
            crate::testkit::assert_multi_outcomes_bitwise_equal(
                &format!("{} ≡ uninterrupted", dir.display()),
                &uninterrupted,
                &out,
            );
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn v3_checkpoint_fails_recover_typed() {
        let (w, model, segs) = toy();
        let dir = tmpdir("v3-ckpt");
        serve_and_crash(&dir, &model, &w, &segs);
        let resolve =
            |_: usize, _: &str| Some((&model, &w as &(dyn crate::workload::Workload + '_)));
        // Control: the v4 snapshot this build wrote recovers.
        let (rt, report) = IngestRuntime::recover(durable_cfg(&dir), &resolve).expect("v4");
        assert!(report.resumed_from_snapshot);
        drop(rt);

        let path = ckpt_file(&dir);
        let mut bytes = fs::read(&path).expect("read");
        bytes[6..8].copy_from_slice(&3u16.to_le_bytes());
        fs::write(&path, bytes).expect("write");
        match IngestRuntime::recover(durable_cfg(&dir), &resolve) {
            Err(SkyError::CorruptWal { detail }) => assert!(
                detail.contains("version 3") && detail.contains("supports 4"),
                "{detail}"
            ),
            Err(e) => panic!("wrong error class: {e}"),
            Ok(_) => panic!("a v3 checkpoint must not recover"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A v3 journal's barrier cross-checks sit where whole-epoch dispatch
    /// put them, so it is refused typed instead of replayed.
    #[test]
    fn v3_journal_fails_recover_typed() {
        let (w, model, segs) = toy();
        let dir = tmpdir("v3-wal");
        serve_and_crash(&dir, &model, &w, &segs);
        let resolve =
            |_: usize, _: &str| Some((&model, &w as &(dyn crate::workload::Workload + '_)));
        let path = wal_file(&dir);
        let v4 = fs::read(&path).expect("read");
        assert!(
            v4.len() as u64 > HEADER_LEN,
            "the crash left a journal tail"
        );
        // Control: the v4 journal this build wrote recovers.
        let (rt, report) = IngestRuntime::recover(durable_cfg(&dir), &resolve).expect("v4");
        assert!(report.replayed_records > 0);
        drop(rt);

        let mut v3 = v4;
        v3[6..8].copy_from_slice(&3u16.to_le_bytes());
        fs::write(&path, v3).expect("write");
        match IngestRuntime::recover(durable_cfg(&dir), &resolve) {
            Err(SkyError::CorruptWal { detail }) => assert!(
                detail.contains("journal version 3") && detail.contains("supports 4"),
                "{detail}"
            ),
            Err(e) => panic!("wrong error class: {e}"),
            Ok(_) => panic!("a v3 journal must not recover"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_an_empty_scan() {
        let dir = tmpdir("missing");
        let scan = read_journal(&dir).expect("scan");
        assert!(scan.records.is_empty());
        assert_eq!(scan.discarded_bytes, 0);
        assert!(read_snapshot(&dir).expect("snapshot").is_none());
    }
}
