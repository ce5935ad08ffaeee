//! Knob-configuration filtering via greedy hill climbing (Appendix A.1).
//!
//! The number of knob configurations is exponential in the number of knobs,
//! so Skyscraper uses VideoStorm's greedy hill-climbing search to construct
//! an approximate work/quality Pareto frontier per sampled segment, then
//! unions the per-segment frontiers and Pareto-filters the union by mean
//! work / mean quality.
//!
//! The search is **parallel and deterministic**: per-segment climbs fan out
//! across the worker pool, and every `(config, content)` evaluation draws
//! its quality noise from a generator derived from the master seed and the
//! evaluation's bit-exact identity (see the `seeding` module). A per-segment
//! `EvalCache` is shared between the climb and the final Pareto filter, so
//! neither phase re-runs the workload on a pair it has already measured.

use std::collections::{HashMap, HashSet};

use vetl_exec::ActorPool;
use vetl_video::ContentState;

use super::seeding;
use crate::error::SkyError;
use crate::knob::KnobConfig;
use crate::workload::Workload;

/// A `(work, quality)` evaluation of a configuration on one segment.
#[derive(Debug, Clone)]
struct Eval {
    config: KnobConfig,
    work: f64,
    quality: f64,
}

/// Memoized `(config → (work, quality))` evaluations for one segment.
///
/// Quality draws come from a per-`(seed, content, config)` generator, so a
/// cache hit returns exactly what a recomputation would — results do not
/// depend on evaluation order, which is what makes the parallel offline run
/// bit-identical to the single-worker run.
#[derive(Debug)]
pub(crate) struct EvalCache {
    seed: u64,
    map: HashMap<KnobConfig, (f64, f64)>,
}

impl EvalCache {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            seed,
            map: HashMap::new(),
        }
    }

    /// Evaluate (or recall) `config` on `content`.
    fn eval<W: Workload + ?Sized>(
        &mut self,
        workload: &W,
        content: &ContentState,
        config: &KnobConfig,
    ) -> (f64, f64) {
        if let Some(&v) = self.map.get(config) {
            return v;
        }
        let v = Self::compute(self.seed, workload, content, config);
        self.map.insert(config.clone(), v);
        v
    }

    /// Cache lookup without computing.
    fn get(&self, config: &KnobConfig) -> Option<(f64, f64)> {
        self.map.get(config).copied()
    }

    /// The deterministic evaluation a cache miss performs.
    fn compute<W: Workload + ?Sized>(
        seed: u64,
        workload: &W,
        content: &ContentState,
        config: &KnobConfig,
    ) -> (f64, f64) {
        let mut rng = seeding::keyed_rng(
            seed,
            seeding::TAG_CLIMB_EVAL,
            seeding::content_fingerprint(content),
            seeding::config_fingerprint(config),
        );
        (
            workload.work(config, content),
            workload.reported_quality(config, content, &mut rng),
        )
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Greedy hill climb on one segment: start from the cheapest configuration
/// and repeatedly take the single-knob move with the best marginal
/// quality-per-work gain, collecting every configuration on the path.
fn climb_one<W: Workload + ?Sized>(
    workload: &W,
    content: &ContentState,
    cache: &mut EvalCache,
    max_steps: usize,
) -> Vec<Eval> {
    let knobs = workload.knobs();
    let mut current = workload.config_space().min_config();
    let mut on_path: HashSet<KnobConfig> = HashSet::new();
    let mut path: Vec<Eval> = Vec::new();

    let (work, quality) = cache.eval(workload, content, &current);
    let mut cur_eval = Eval {
        config: current.clone(),
        work,
        quality,
    };
    on_path.insert(current.clone());
    path.push(cur_eval.clone());

    for _ in 0..max_steps {
        let mut best: Option<Eval> = None;
        let mut best_gain = 0.0;
        for n in current.neighbors(knobs) {
            if on_path.contains(&n) {
                continue;
            }
            let (work, quality) = cache.eval(workload, content, &n);
            let dq = quality - cur_eval.quality;
            let dw = work - cur_eval.work;
            // Marginal quality per marginal work; free improvements are
            // taken with top priority.
            let gain = if dw <= 1e-12 {
                if dq > 0.0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            } else {
                dq / dw
            };
            if dq > 1e-4 && gain > best_gain {
                best_gain = gain;
                best = Some(Eval {
                    config: n,
                    work,
                    quality,
                });
            }
        }
        match best {
            Some(e) => {
                current = e.config.clone();
                on_path.insert(e.config.clone());
                cur_eval = e.clone();
                path.push(e);
            }
            None => break,
        }
    }
    path
}

/// Pareto filter on (work ascending, quality): keep a configuration iff no
/// other has both less-or-equal work and strictly better quality. Total
/// order over bits, so NaNs (already rejected upstream) cannot panic here.
fn pareto(evals: Vec<Eval>) -> Vec<Eval> {
    let mut sorted = evals;
    sorted.sort_by(|a, b| {
        a.work
            .total_cmp(&b.work)
            .then(b.quality.total_cmp(&a.quality))
    });
    let mut out: Vec<Eval> = Vec::new();
    let mut best_q = f64::NEG_INFINITY;
    for e in sorted {
        if e.quality > best_q + 1e-12 {
            best_q = e.quality;
            out.push(e);
        }
    }
    out
}

/// Run the full filter: hill climb on each diverse sample (scattered across
/// `pool`), union the per-segment Pareto sets, and Pareto-filter the union
/// on mean work / mean quality across all samples. `k_plus` is
/// force-included so the most qualitative configuration always survives.
///
/// The result is identical for every pool size (see module docs).
pub fn filter_configs<W: Workload + ?Sized>(
    workload: &W,
    samples: &[ContentState],
    k_plus: &KnobConfig,
    seed: u64,
    pool: &ActorPool,
) -> Result<Vec<KnobConfig>, SkyError> {
    if samples.is_empty() {
        return Err(SkyError::InsufficientData {
            what: "config filtering needs sample segments",
        });
    }
    let max_steps = workload.config_space().size();

    // Per-segment climbs, in parallel. Each climb owns its segment's cache;
    // the caches come back for reuse by the mean filter below.
    let climbed: Vec<(Vec<Eval>, EvalCache)> = pool.par_map(samples, |_, content| {
        let mut cache = EvalCache::new(seed);
        let path = climb_one(workload, content, &mut cache, max_steps);
        (pareto(path), cache)
    });

    // Union the per-segment frontiers in deterministic (segment, path) order.
    let mut union: Vec<KnobConfig> = Vec::new();
    let mut seen: HashSet<KnobConfig> = HashSet::new();
    for (frontier, _) in &climbed {
        for e in frontier {
            if seen.insert(e.config.clone()) {
                union.push(e.config.clone());
            }
        }
    }
    if seen.insert(k_plus.clone()) {
        union.push(k_plus.clone());
    }
    let caches: Vec<EvalCache> = climbed.into_iter().map(|(_, c)| c).collect();

    // Mean work/quality of every union config across all samples, reusing
    // the climb evaluations. One row per segment, scattered across workers.
    let union_ref = &union;
    let caches_ref = &caches;
    let rows: Vec<Vec<(f64, f64)>> = pool.par_map(samples, |i, content| {
        union_ref
            .iter()
            .map(|config| {
                caches_ref[i]
                    .get(config)
                    .unwrap_or_else(|| EvalCache::compute(seed, workload, content, config))
            })
            .collect()
    });

    let n = samples.len() as f64;
    let evals: Vec<Eval> = union
        .into_iter()
        .enumerate()
        .map(|(k, config)| {
            let (work, quality) = rows
                .iter()
                .fold((0.0, 0.0), |(w, q), row| (w + row[k].0, q + row[k].1));
            Eval {
                config,
                work: work / n,
                quality: quality / n,
            }
        })
        .collect();
    if evals
        .iter()
        .any(|e| !e.work.is_finite() || !e.quality.is_finite())
    {
        return Err(SkyError::NonFinite {
            what: "hill-climb work/quality evaluation",
        });
    }

    let mut result: Vec<KnobConfig> = pareto(evals).into_iter().map(|e| e.config).collect();
    if !result.contains(k_plus) {
        result.push(k_plus.clone());
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ToyWorkload;
    use vetl_video::{ContentParams, ContentProcess};

    fn contents() -> Vec<ContentState> {
        let mut p = ContentProcess::new(ContentParams::traffic_intersection(5), 2.0);
        let mut out = Vec::new();
        // Space samples hours apart to get diverse difficulty.
        for _ in 0..5 {
            out.push(p.step());
            p.skip_segments(3600);
        }
        out
    }

    fn filter(
        w: &ToyWorkload,
        samples: &[ContentState],
        k_plus: &KnobConfig,
        seed: u64,
        pool: &ActorPool,
    ) -> Vec<KnobConfig> {
        filter_configs(w, samples, k_plus, seed, pool).expect("filter succeeds")
    }

    #[test]
    fn filtered_set_is_nonempty_and_within_space() {
        let w = ToyWorkload::new();
        let pool = ActorPool::new(2);
        let space_size = w.config_space().size();
        let k_plus = w.config_space().max_config();
        let filtered = filter(&w, &contents(), &k_plus, 3, &pool);
        assert!(!filtered.is_empty());
        assert!(filtered.len() <= space_size);
        assert!(filtered.contains(&k_plus), "k+ must survive");
    }

    #[test]
    fn filtered_set_contains_cheap_and_expensive_ends() {
        let w = ToyWorkload::new();
        let pool = ActorPool::new(2);
        let k_plus = w.config_space().max_config();
        let filtered = filter(&w, &contents(), &k_plus, 3, &pool);
        let samples = contents();
        let works: Vec<f64> = filtered
            .iter()
            .map(|c| workload_mean_work(&w, c, &samples))
            .collect();
        let min = works.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = works.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max / min > 3.0,
            "frontier should span a work range: {min} – {max}"
        );
    }

    fn workload_mean_work(w: &ToyWorkload, c: &KnobConfig, samples: &[ContentState]) -> f64 {
        samples.iter().map(|s| w.work(c, s)).sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn result_is_a_pareto_frontier_in_expectation() {
        let w = ToyWorkload::new();
        let pool = ActorPool::new(2);
        let samples = contents();
        let k_plus = w.config_space().max_config();
        let filtered = filter(&w, &samples, &k_plus, 3, &pool);
        // No config may dominate another on (mean true quality, mean work).
        for a in &filtered {
            for b in &filtered {
                if a == b {
                    continue;
                }
                let wa = workload_mean_work(&w, a, &samples);
                let wb = workload_mean_work(&w, b, &samples);
                let qa: f64 = samples.iter().map(|s| w.true_quality(a, s)).sum::<f64>();
                let qb: f64 = samples.iter().map(|s| w.true_quality(b, s)).sum::<f64>();
                let dominates = wa <= wb && qa > qb + 0.05 * samples.len() as f64;
                assert!(
                    !(dominates && wa < wb * 0.8),
                    "{a} strongly dominates {b} — filter failed"
                );
            }
        }
    }

    #[test]
    fn parallel_and_single_worker_climbs_agree() {
        let w = ToyWorkload::new();
        let samples = contents();
        let k_plus = w.config_space().max_config();
        let serial = filter(&w, &samples, &k_plus, 11, &ActorPool::new(1));
        let parallel = filter(&w, &samples, &k_plus, 11, &ActorPool::new(4));
        assert_eq!(serial, parallel, "filter must be scheduling-independent");
    }

    #[test]
    fn empty_samples_are_a_typed_error() {
        let w = ToyWorkload::new();
        let pool = ActorPool::new(1);
        let k_plus = w.config_space().max_config();
        let err = filter_configs(&w, &[], &k_plus, 3, &pool).unwrap_err();
        assert!(matches!(err, SkyError::InsufficientData { .. }));
    }

    #[test]
    fn cache_memoizes_and_reproduces_draws() {
        let w = ToyWorkload::new();
        let all = contents();
        // Mid-range difficulty keeps the logistic quality away from the
        // [0, 1] clamp, so distinct noise draws stay distinct.
        let mut content = all[0];
        content.difficulty = 0.55;
        let mut other_content = all[1];
        other_content.difficulty = 0.6;
        let config = w.config_space().min_config();
        let mut cache = EvalCache::new(9);
        let a = cache.eval(&w, &content, &config);
        let n_after_first = cache.len();
        let b = cache.eval(&w, &content, &config);
        assert_eq!(a, b);
        assert_eq!(cache.len(), n_after_first, "second eval must hit the cache");
        // A fresh cache for the same (seed, content) reproduces the draw.
        let mut fresh = EvalCache::new(9);
        assert_eq!(fresh.eval(&w, &content, &config), a);
        // Different content draws different noise.
        let mut other = EvalCache::new(9);
        assert_ne!(other.eval(&w, &other_content, &config).1, a.1);
    }
}
