//! Cross-stream dedup: a content-addressed result cache in front of
//! per-segment extraction.
//!
//! Camera fleets are massively redundant — co-located streams repeat
//! content — yet without this module every segment pays full
//! oracle+simulate cost and full wallet spend. A [`DedupCache`] keys
//! extraction results by a canonical **content signature**
//! ([`vetl_video::Segment::signature_words`]) so a segment whose signature
//! was already extracted short-circuits to the cached result.
//!
//! ## What a hit supplies — and why exact mode is bitwise
//!
//! A cache entry carries exactly the *pure, RNG-free* computations of the
//! ingest hot path: the ground-truth category, the simulated execution
//! result (cloud dollars, on-premise and cloud busy seconds), and the true
//! quality — all deterministic functions of (content bits, knob config,
//! hardware). Everything RNG-bearing (reported-quality noise, No-Type-B
//! classification draws) always executes, hit or miss, so the RNG stream
//! is untouched. In **exact mode** (`tolerance == 0`) equal signatures
//! imply bit-identical extraction inputs, a hit's values are bitwise equal
//! to what recomputation would produce, and the hit charges them exactly —
//! the run is bitwise identical to dedup-disabled and the win is the
//! skipped compute. In **tolerant mode** (`tolerance > 0`) near-duplicate
//! segments collide into one bucket and a full hit charges *nothing* (zero
//! wallet spend, zero queued work), booking the avoided spend as savings;
//! divergence from the disabled run is the point.
//!
//! ## Publication discipline — why results are shard-count independent
//!
//! The shared cache is **frozen between epoch barriers**. Sessions record
//! fresh entries into a private pending list (visible to themselves
//! immediately — per-stream order is shard-invariant) and the coordinator
//! merges all pending lists into the cache *at the barrier, in stable slot
//! order*, single-threaded. A stream's epoch behavior is therefore a
//! function of (cache state at the last barrier, its own segments) only —
//! the same inputs whether streams run on 1 shard or 16 — the
//! position-addressed gather-then-merge discipline the offline phase's
//! `par_map` stages use.
//!
//! ## Staleness and confidence
//!
//! Entries age in epochs. A lookup whose entry is older than
//! [`DedupPolicy::max_age_epochs`] yields a typed
//! [`SkyError::StaleHit`] — the session treats it as a miss, recomputes,
//! and its refreshed entry replaces the stale one at the next barrier.
//! When two streams independently compute the same entry in one epoch the
//! merge bumps its `confidence` instead of duplicating it; a re-published
//! entry with *different* results (the decision moved to another config)
//! replaces the old one — latest wins, deterministically. Capacity
//! eviction drops oldest-first with a total key order as tie-break, so the
//! surviving set never depends on hash-map iteration order.

use std::collections::HashMap;

use vetl_video::Segment;

use crate::error::SkyError;
use crate::offline::codec::{Dec, DecodeResult, Enc};

/// Policy of one dedup domain: how signatures bucket, how big the cache
/// may grow, and how long a cached result stays trustworthy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DedupPolicy {
    /// Perceptual bucket width for the difficulty/activity fields. `0.0`
    /// is **exact mode**: signatures are raw f64 bits and dedup is bitwise
    /// invisible. `> 0.0` buckets near-duplicates within the tolerance
    /// into one signature.
    pub tolerance: f64,
    /// Cache capacity bound in entries; oldest entries (by publication
    /// epoch, key order as tie-break) are evicted beyond it.
    pub max_entries: usize,
    /// Entries older than this many epochs are stale and answered with
    /// [`SkyError::StaleHit`] until refreshed. `0` disables staleness —
    /// entries never expire.
    pub max_age_epochs: u64,
}

impl DedupPolicy {
    /// Exact mode: bit-identical content only, bitwise-invisible results.
    pub fn exact() -> Self {
        Self {
            tolerance: 0.0,
            max_entries: 1 << 16,
            max_age_epochs: 0,
        }
    }

    /// Tolerant mode: near-duplicates within `tolerance` share a bucket
    /// and full hits charge nothing.
    pub fn near(tolerance: f64) -> Self {
        Self {
            tolerance,
            ..Self::exact()
        }
    }

    /// Whether this policy is exact (bitwise-invisible) mode.
    pub fn is_exact(&self) -> bool {
        self.tolerance == 0.0
    }
}

impl Default for DedupPolicy {
    fn default() -> Self {
        Self::exact()
    }
}

/// Cache key: the dedup scope (model + workload fingerprint — results are
/// only answers to the *same* extraction question) plus the segment's
/// content signature. The key is the exact identity itself, not a hash of
/// it, so collisions are impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct DedupKey {
    pub(crate) scope: u64,
    pub(crate) sig: [u64; 6],
}

impl DedupKey {
    pub(crate) fn new(scope: u64, seg: &Segment, tolerance: f64) -> Self {
        Self {
            scope,
            sig: seg.signature_words(tolerance),
        }
    }
}

/// One cached extraction result: the pure, RNG-free computations of a
/// segment push, plus the knob decision they were made under and the
/// publication bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DedupEntry {
    /// Ground-truth content category of the signature's content.
    pub(crate) gt_category: usize,
    /// Knob configuration the cached execution ran under.
    pub(crate) config: usize,
    /// Placement index within the configuration's Pareto set.
    pub(crate) placement: usize,
    /// True quality of (config, content).
    pub(crate) true_quality: f64,
    /// Simulated cloud spend of the execution, dollars.
    pub(crate) cloud_usd: f64,
    /// Simulated on-premise busy time, core-seconds.
    pub(crate) onprem_busy_secs: f64,
    /// Simulated cloud busy time, core-seconds.
    pub(crate) cloud_busy_secs: f64,
    /// Times this exact result was independently computed.
    pub(crate) confidence: u64,
    /// Cache epoch the entry was (re-)published at.
    pub(crate) born_epoch: u64,
}

impl DedupEntry {
    /// Whether two entries carry the same result bits (publication
    /// bookkeeping excluded) — the merge's confirm-vs-replace predicate.
    fn same_result(&self, other: &DedupEntry) -> bool {
        self.gt_category == other.gt_category
            && self.config == other.config
            && self.placement == other.placement
            && self.true_quality.to_bits() == other.true_quality.to_bits()
            && self.cloud_usd.to_bits() == other.cloud_usd.to_bits()
            && self.onprem_busy_secs.to_bits() == other.onprem_busy_secs.to_bits()
            && self.cloud_busy_secs.to_bits() == other.cloud_busy_secs.to_bits()
    }
}

/// Per-stream dedup counters, settled into [`crate::IngestOutcome`] and
/// surfaced through runtime metrics and the wire protocol's stats reply.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DedupStats {
    /// Cache consults (one per pushed segment while dedup is enabled).
    pub lookups: u64,
    /// Full hits: entry found *and* the knob decision matched it, so the
    /// execution and quality oracle were both skipped.
    pub hits_full: u64,
    /// Ground-truth-only hits: entry found but the decision chose a
    /// different config/placement — the category oracle was skipped, the
    /// execution recomputed (and the entry refreshed).
    pub hits_gt: u64,
    /// Lookups answered with a stale entry (recomputed and refreshed).
    pub stale: u64,
    /// Segment bytes whose extraction was skipped by full hits.
    pub bytes_saved: f64,
    /// Wallet dollars *not spent* thanks to full hits (tolerant mode only;
    /// exact mode charges cached spend bitwise).
    pub spend_saved_usd: f64,
    /// Simulated core-seconds not re-derived thanks to full hits.
    pub work_saved_secs: f64,
}

impl DedupStats {
    /// Total hits (full + ground-truth-only).
    pub fn hits(&self) -> u64 {
        self.hits_full + self.hits_gt
    }

    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups as f64
        }
    }

    /// Fold another stream's counters into this aggregate.
    pub fn absorb(&mut self, other: &DedupStats) {
        self.lookups += other.lookups;
        self.hits_full += other.hits_full;
        self.hits_gt += other.hits_gt;
        self.stale += other.stale;
        self.bytes_saved += other.bytes_saved;
        self.spend_saved_usd += other.spend_saved_usd;
        self.work_saved_secs += other.work_saved_secs;
    }
}

/// The shared content-addressed result cache. Immutable between epoch
/// barriers (workers hold `&DedupCache`); all mutation happens
/// single-threaded at the barrier through `begin_epoch` → `publish` (per
/// stream, slot order) → `enforce_capacity`.
#[derive(Debug, Clone)]
pub struct DedupCache {
    policy: DedupPolicy,
    /// Barriers crossed since creation; entries are aged against this.
    epoch: u64,
    map: HashMap<DedupKey, DedupEntry>,
}

impl DedupCache {
    /// An empty cache under `policy`.
    pub fn new(policy: DedupPolicy) -> Self {
        Self {
            policy,
            epoch: 0,
            map: HashMap::new(),
        }
    }

    /// The policy the cache was built with.
    pub fn policy(&self) -> &DedupPolicy {
        &self.policy
    }

    /// Barriers crossed since creation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Guard a consult: a session configured with a different policy would
    /// read answers to a different extraction question (different
    /// bucketing), so the mismatch is a typed [`SkyError::CachePoisoned`]
    /// instead of silently wrong bits.
    pub(crate) fn check_policy(&self, policy: &DedupPolicy) -> Result<(), SkyError> {
        if policy.tolerance.to_bits() != self.policy.tolerance.to_bits()
            || policy.max_entries != self.policy.max_entries
            || policy.max_age_epochs != self.policy.max_age_epochs
        {
            return Err(SkyError::CachePoisoned {
                detail: format!(
                    "session policy {policy:?} vs cache policy {:?}",
                    self.policy
                ),
            });
        }
        Ok(())
    }

    /// Look up a signature. `Ok(None)` is a miss; a present entry older
    /// than the staleness bound is a typed [`SkyError::StaleHit`] (the
    /// caller recomputes and refreshes).
    pub(crate) fn lookup(&self, key: &DedupKey) -> Result<Option<DedupEntry>, SkyError> {
        match self.map.get(key) {
            None => Ok(None),
            Some(e) => {
                let age = self.epoch.saturating_sub(e.born_epoch);
                if self.policy.max_age_epochs > 0 && age > self.policy.max_age_epochs {
                    Err(SkyError::StaleHit {
                        age_epochs: age,
                        max_age_epochs: self.policy.max_age_epochs,
                    })
                } else {
                    Ok(Some(*e))
                }
            }
        }
    }

    /// Barrier step 1: sweep entries that were stale during the epoch just
    /// finished, then advance the epoch. Entries crossing the staleness
    /// bound mid-epoch stay present (lookups see them as
    /// [`SkyError::StaleHit`]) until this sweep.
    pub(crate) fn begin_epoch(&mut self) {
        let max_age = self.policy.max_age_epochs;
        if max_age > 0 {
            let epoch = self.epoch;
            self.map
                .retain(|_, e| epoch.saturating_sub(e.born_epoch) <= max_age);
        }
        self.epoch += 1;
    }

    /// Barrier step 2: merge one stream's pending entries, in the stream's
    /// own recording order. Callers iterate streams in slot order so the
    /// merged cache is bitwise independent of how streams were sharded.
    pub(crate) fn publish(&mut self, pending: Vec<(DedupKey, DedupEntry)>) {
        for (key, mut entry) in pending {
            entry.born_epoch = self.epoch;
            match self.map.get_mut(&key) {
                Some(existing) if existing.same_result(&entry) => {
                    // Independently recomputed, same bits: confirm.
                    existing.confidence += 1;
                    existing.born_epoch = self.epoch;
                }
                Some(existing) => *existing = entry,
                None => {
                    self.map.insert(key, entry);
                }
            }
        }
    }

    /// Barrier step 3: evict beyond capacity, oldest publication epoch
    /// first with key order as tie-break — a total order, so the surviving
    /// set never depends on hash iteration order.
    pub(crate) fn enforce_capacity(&mut self) {
        if self.map.len() <= self.policy.max_entries {
            return;
        }
        let mut order: Vec<(u64, DedupKey)> =
            self.map.iter().map(|(k, e)| (e.born_epoch, *k)).collect();
        order.sort_unstable();
        let excess = self.map.len() - self.policy.max_entries;
        for (_, key) in order.into_iter().take(excess) {
            self.map.remove(&key);
        }
    }

    /// Entries in ascending key order — the byte-stable iteration the
    /// snapshot codec needs (hash-map order must never reach a codec).
    pub(crate) fn sorted_entries(&self) -> Vec<(DedupKey, DedupEntry)> {
        let mut entries: Vec<(DedupKey, DedupEntry)> =
            self.map.iter().map(|(k, e)| (*k, *e)).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        entries
    }
}

// ---------------------------------------------------------------------
// Codec (little-endian, floats as raw bits — the knowledge-base format
// discipline, so dedup state survives checkpoints and the WAL bitwise).
// ---------------------------------------------------------------------

pub(crate) fn enc_policy(e: &mut Enc, p: &DedupPolicy) {
    e.f64(p.tolerance);
    e.usize(p.max_entries);
    e.u64(p.max_age_epochs);
}

pub(crate) fn dec_policy(d: &mut Dec) -> DecodeResult<DedupPolicy> {
    let p = DedupPolicy {
        tolerance: d.f64("dedup tolerance")?,
        max_entries: d.usize("dedup max_entries")?,
        max_age_epochs: d.u64("dedup max_age_epochs")?,
    };
    if !(p.tolerance.is_finite() && p.tolerance >= 0.0) {
        return Err("dedup tolerance must be finite and non-negative".into());
    }
    Ok(p)
}

pub(crate) fn enc_key(e: &mut Enc, k: &DedupKey) {
    e.u64(k.scope);
    for &w in &k.sig {
        e.u64(w);
    }
}

pub(crate) fn dec_key(d: &mut Dec) -> DecodeResult<DedupKey> {
    let scope = d.u64("dedup key scope")?;
    let mut sig = [0u64; 6];
    for w in &mut sig {
        *w = d.u64("dedup key sig word")?;
    }
    Ok(DedupKey { scope, sig })
}

pub(crate) fn enc_entry(e: &mut Enc, en: &DedupEntry) {
    e.usize(en.gt_category);
    e.usize(en.config);
    e.usize(en.placement);
    e.f64(en.true_quality);
    e.f64(en.cloud_usd);
    e.f64(en.onprem_busy_secs);
    e.f64(en.cloud_busy_secs);
    e.u64(en.confidence);
    e.u64(en.born_epoch);
}

pub(crate) fn dec_entry(d: &mut Dec) -> DecodeResult<DedupEntry> {
    Ok(DedupEntry {
        gt_category: d.usize("dedup entry gt_category")?,
        config: d.usize("dedup entry config")?,
        placement: d.usize("dedup entry placement")?,
        true_quality: d.f64("dedup entry true_quality")?,
        cloud_usd: d.f64("dedup entry cloud_usd")?,
        onprem_busy_secs: d.f64("dedup entry onprem_busy_secs")?,
        cloud_busy_secs: d.f64("dedup entry cloud_busy_secs")?,
        confidence: d.u64("dedup entry confidence")?,
        born_epoch: d.u64("dedup entry born_epoch")?,
    })
}

/// Bytes one serialized (key, entry) pair occupies — `Dec::len`'s
/// per-element floor for pre-validation.
pub(crate) const KEY_ENTRY_BYTES: usize = 7 * 8 + 9 * 8;

pub(crate) fn enc_pending(e: &mut Enc, pending: &[(DedupKey, DedupEntry)]) {
    e.usize(pending.len());
    for (k, en) in pending {
        enc_key(e, k);
        enc_entry(e, en);
    }
}

pub(crate) fn dec_pending(d: &mut Dec) -> DecodeResult<Vec<(DedupKey, DedupEntry)>> {
    let n = d.len(KEY_ENTRY_BYTES, "dedup pending entries")?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        pending.push((dec_key(d)?, dec_entry(d)?));
    }
    Ok(pending)
}

pub(crate) fn enc_stats(e: &mut Enc, s: &DedupStats) {
    e.u64(s.lookups);
    e.u64(s.hits_full);
    e.u64(s.hits_gt);
    e.u64(s.stale);
    e.f64(s.bytes_saved);
    e.f64(s.spend_saved_usd);
    e.f64(s.work_saved_secs);
}

pub(crate) fn dec_stats(d: &mut Dec) -> DecodeResult<DedupStats> {
    Ok(DedupStats {
        lookups: d.u64("dedup stats lookups")?,
        hits_full: d.u64("dedup stats hits_full")?,
        hits_gt: d.u64("dedup stats hits_gt")?,
        stale: d.u64("dedup stats stale")?,
        bytes_saved: d.f64("dedup stats bytes_saved")?,
        spend_saved_usd: d.f64("dedup stats spend_saved_usd")?,
        work_saved_secs: d.f64("dedup stats work_saved_secs")?,
    })
}

/// Serialize a whole cache: policy, epoch, entries in sorted key order.
pub(crate) fn enc_cache(e: &mut Enc, c: &DedupCache) {
    enc_policy(e, &c.policy);
    e.u64(c.epoch);
    enc_pending(e, &c.sorted_entries());
}

pub(crate) fn dec_cache(d: &mut Dec) -> DecodeResult<DedupCache> {
    let policy = dec_policy(d)?;
    let epoch = d.u64("dedup cache epoch")?;
    let entries = dec_pending(d)?;
    let mut map = HashMap::with_capacity(entries.len());
    for (k, e) in entries {
        map.insert(k, e);
    }
    Ok(DedupCache { policy, epoch, map })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(scope: u64, a: u64) -> DedupKey {
        DedupKey {
            scope,
            sig: [a, 2, 3, 4, 5, 0],
        }
    }

    fn entry(config: usize) -> DedupEntry {
        DedupEntry {
            gt_category: 1,
            config,
            placement: 0,
            true_quality: 0.5,
            cloud_usd: 0.01,
            onprem_busy_secs: 2.0,
            cloud_busy_secs: 0.5,
            confidence: 1,
            born_epoch: 0,
        }
    }

    #[test]
    fn lookup_hits_after_publication_only() {
        let mut c = DedupCache::new(DedupPolicy::exact());
        assert_eq!(c.lookup(&key(7, 1)).unwrap(), None);
        c.begin_epoch();
        c.publish(vec![(key(7, 1), entry(0))]);
        c.enforce_capacity();
        let e = c.lookup(&key(7, 1)).unwrap().expect("published entry");
        assert_eq!(e.config, 0);
        assert_eq!(e.born_epoch, 1);
        // A different scope is a different extraction question.
        assert_eq!(c.lookup(&key(8, 1)).unwrap(), None);
    }

    #[test]
    fn merge_confirms_equal_results_and_replaces_changed_ones() {
        let mut c = DedupCache::new(DedupPolicy::exact());
        c.begin_epoch();
        c.publish(vec![(key(7, 1), entry(0))]);
        // Same result from a second stream: confidence bumps.
        c.publish(vec![(key(7, 1), entry(0))]);
        assert_eq!(c.lookup(&key(7, 1)).unwrap().unwrap().confidence, 2);
        // A refreshed result under a different config replaces the entry.
        c.publish(vec![(key(7, 1), entry(3))]);
        let e = c.lookup(&key(7, 1)).unwrap().unwrap();
        assert_eq!(e.config, 3);
        assert_eq!(e.confidence, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn staleness_yields_typed_hit_then_sweep() {
        let mut c = DedupCache::new(DedupPolicy {
            max_age_epochs: 1,
            ..DedupPolicy::exact()
        });
        c.begin_epoch(); // epoch 1
        c.publish(vec![(key(7, 1), entry(0))]);
        c.begin_epoch(); // epoch 2: age 1, still fresh
        assert!(c.lookup(&key(7, 1)).unwrap().is_some());
        c.begin_epoch(); // epoch 3: age 2 > bound — stale, but present
        match c.lookup(&key(7, 1)) {
            Err(SkyError::StaleHit {
                age_epochs: 2,
                max_age_epochs: 1,
            }) => {}
            other => panic!("expected StaleHit, got {other:?}"),
        }
        c.begin_epoch(); // epoch 4: the sweep drops it
        assert_eq!(c.lookup(&key(7, 1)).unwrap(), None);
        assert!(c.is_empty());
    }

    /// Boundary audit: `max_age_epochs == 0` means "never expires" — both
    /// halves of the aging machinery (the lookup staleness check and the
    /// barrier sweep) must honor it. A regression on either side would
    /// surface as `StaleHit { max_age_epochs: 0 }` on every aged lookup,
    /// or as the sweep draining the whole cache each barrier.
    #[test]
    fn max_age_zero_disables_aging_entirely() {
        assert_eq!(DedupPolicy::exact().max_age_epochs, 0);
        let mut c = DedupCache::new(DedupPolicy::exact());
        c.begin_epoch();
        c.publish(vec![(key(7, 1), entry(0))]);
        for _ in 0..100 {
            c.begin_epoch();
        }
        let e = c
            .lookup(&key(7, 1))
            .expect("an unbounded-age entry is never a StaleHit")
            .expect("an unbounded-age entry is never swept");
        assert_eq!(e.born_epoch, 1);
        assert_eq!(c.len(), 1);
        // Age 100 at bound 1 would be long gone — the zero bound is what
        // kept it alive, not a short timeline.
        assert_eq!(c.epoch(), 101);
    }

    #[test]
    fn capacity_evicts_oldest_first_deterministically() {
        let mut c = DedupCache::new(DedupPolicy {
            max_entries: 2,
            ..DedupPolicy::exact()
        });
        c.begin_epoch();
        c.publish(vec![(key(7, 1), entry(0))]);
        c.begin_epoch();
        c.publish(vec![(key(7, 2), entry(0)), (key(7, 3), entry(0))]);
        c.enforce_capacity();
        assert_eq!(c.len(), 2);
        // The epoch-1 entry was oldest and went first.
        assert_eq!(c.lookup(&key(7, 1)).unwrap(), None);
        assert!(c.lookup(&key(7, 2)).unwrap().is_some());
        assert!(c.lookup(&key(7, 3)).unwrap().is_some());
        // Same-epoch overflow tie-breaks by key order: lowest key evicted.
        c.begin_epoch();
        c.publish(vec![(key(7, 0), entry(0))]);
        c.enforce_capacity();
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&key(7, 2)).unwrap(), None, "oldest epoch first");
    }

    #[test]
    fn policy_mismatch_is_cache_poisoned() {
        let c = DedupCache::new(DedupPolicy::exact());
        assert!(c.check_policy(&DedupPolicy::exact()).is_ok());
        let err = c.check_policy(&DedupPolicy::near(0.05)).unwrap_err();
        assert!(matches!(err, SkyError::CachePoisoned { .. }));
        assert!(!err.is_retryable());
    }

    #[test]
    fn cache_codec_round_trips_bitwise() {
        let mut c = DedupCache::new(DedupPolicy {
            tolerance: 0.05,
            max_entries: 100,
            max_age_epochs: 3,
        });
        c.begin_epoch();
        c.publish(vec![
            (key(7, 2), entry(1)),
            (key(7, 1), entry(0)),
            (key(9, 1), entry(2)),
        ]);
        let mut e = Enc::new();
        enc_cache(&mut e, &c);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_cache(&mut d).expect("decodes");
        assert_eq!(back.epoch(), c.epoch());
        assert_eq!(back.policy(), c.policy());
        assert_eq!(back.sorted_entries(), c.sorted_entries());
        // Sorted-order encoding is byte-stable across map iteration order.
        let mut e2 = Enc::new();
        enc_cache(&mut e2, &back);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn stats_aggregate_and_rate() {
        let mut a = DedupStats {
            lookups: 10,
            hits_full: 4,
            hits_gt: 1,
            stale: 1,
            bytes_saved: 100.0,
            spend_saved_usd: 0.5,
            work_saved_secs: 9.0,
        };
        let b = DedupStats {
            lookups: 10,
            hits_full: 5,
            ..DedupStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.lookups, 20);
        assert_eq!(a.hits(), 10);
        assert_eq!(a.hit_rate(), 0.5);
        assert_eq!(DedupStats::default().hit_rate(), 0.0);
    }
}
