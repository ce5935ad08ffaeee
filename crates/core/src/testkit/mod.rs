//! Test support: a miniature workload, bitwise outcome comparators, fault
//! injection ([`chaos`]) and the single-threaded [`reference`] the runtime
//! is differentially tested against.
//!
//! `ToyWorkload` is a two-knob detect-and-track pipeline with the same
//! *shape* as the paper's workloads (cheap configs fail on hard content,
//! expensive configs always succeed, cost spans ~an order of magnitude) but
//! small enough that offline fitting runs in milliseconds. The realistic
//! workloads live in `vetl-workloads`.

pub mod chaos;
pub mod reference;

use rand::rngs::StdRng;
use rand::Rng;

use crate::multistream::MultiOutcome;
use crate::online::session::IngestOutcome;

/// Assert two ingestion outcomes are **bitwise** equal — every float
/// compared via `to_bits`, every counter exactly. The shared comparator
/// behind all determinism/equivalence tests, so a new outcome field is
/// added to the bitwise bar in exactly one place.
#[track_caller]
pub fn assert_outcomes_bitwise_equal(ctx: &str, a: &IngestOutcome, b: &IngestOutcome) {
    assert_eq!(a.segments, b.segments, "{ctx}: segments");
    assert_eq!(
        a.mean_quality.to_bits(),
        b.mean_quality.to_bits(),
        "{ctx}: mean_quality {} vs {}",
        a.mean_quality,
        b.mean_quality
    );
    assert_eq!(
        a.work_core_secs.to_bits(),
        b.work_core_secs.to_bits(),
        "{ctx}: work_core_secs"
    );
    assert_eq!(a.cloud_usd.to_bits(), b.cloud_usd.to_bits(), "{ctx}: cloud");
    assert_eq!(
        a.buffer_peak.to_bits(),
        b.buffer_peak.to_bits(),
        "{ctx}: buffer_peak"
    );
    assert_eq!(a.overflows, b.overflows, "{ctx}: overflows");
    assert_eq!(a.switches, b.switches, "{ctx}: switches");
    assert_eq!(
        a.misclassification_rate.to_bits(),
        b.misclassification_rate.to_bits(),
        "{ctx}: misclassification_rate"
    );
    assert_eq!(a.plans, b.plans, "{ctx}: plans");
    assert_eq!(
        a.duration_secs.to_bits(),
        b.duration_secs.to_bits(),
        "{ctx}: duration_secs"
    );
    assert_eq!(a.drift_alarms, b.drift_alarms, "{ctx}: drift_alarms");
    assert_eq!(a.dedup.lookups, b.dedup.lookups, "{ctx}: dedup lookups");
    assert_eq!(
        a.dedup.hits_full, b.dedup.hits_full,
        "{ctx}: dedup hits_full"
    );
    assert_eq!(a.dedup.hits_gt, b.dedup.hits_gt, "{ctx}: dedup hits_gt");
    assert_eq!(a.dedup.stale, b.dedup.stale, "{ctx}: dedup stale");
    assert_eq!(
        a.dedup.bytes_saved.to_bits(),
        b.dedup.bytes_saved.to_bits(),
        "{ctx}: dedup bytes_saved"
    );
    assert_eq!(
        a.dedup.spend_saved_usd.to_bits(),
        b.dedup.spend_saved_usd.to_bits(),
        "{ctx}: dedup spend_saved_usd"
    );
    assert_eq!(
        a.dedup.work_saved_secs.to_bits(),
        b.dedup.work_saved_secs.to_bits(),
        "{ctx}: dedup work_saved_secs"
    );
    assert_eq!(a.trace.len(), b.trace.len(), "{ctx}: trace length");
}

/// Assert two multi-stream outcomes are **bitwise** equal, per stream and
/// in aggregate.
#[track_caller]
pub fn assert_multi_outcomes_bitwise_equal(label: &str, a: &MultiOutcome, b: &MultiOutcome) {
    assert_eq!(a.streams.len(), b.streams.len(), "{label}: stream count");
    for (sa, sb) in a.streams.iter().zip(&b.streams) {
        let ctx = format!("{label}: stream {}", sa.workload_id);
        assert_eq!(sa.workload_id, sb.workload_id, "{ctx}: id");
        assert_outcomes_bitwise_equal(&ctx, &sa.outcome, &sb.outcome);
    }
    assert_eq!(
        a.cloud_usd.to_bits(),
        b.cloud_usd.to_bits(),
        "{label}: joint cloud"
    );
    assert_eq!(
        a.joint_quality.to_bits(),
        b.joint_quality.to_bits(),
        "{label}: joint quality"
    );
}

use vetl_sim::{TaskGraph, TaskNode};
use vetl_video::ContentState;

use crate::knob::{Knob, KnobConfig, KnobValue};
use crate::workload::Workload;

/// Logistic quality response shared by the synthetic workloads (same shape
/// as `vetl-workloads`): a steep sigmoid in (capability − 0.85·difficulty),
/// so expensive configurations stay reliable on the hardest content while
/// under-powered ones collapse.
pub fn logistic_quality(capability: f64, difficulty: f64) -> f64 {
    let z = 12.0 * (capability - 0.85 * difficulty) + 0.8;
    1.0 / (1.0 + (-z).exp())
}

/// Additive Gaussian observation noise, clamped to `[0, 1]` — the
/// reported-quality channel.
pub fn noisy(q: f64, sigma: f64, rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (q + sigma * g).clamp(0.0, 1.0)
}

/// A 3×2-configuration detect-and-track toy workload.
#[derive(Debug, Clone)]
pub struct ToyWorkload {
    knobs: Vec<Knob>,
    seg_len: f64,
}

impl ToyWorkload {
    /// Create with 2-second segments.
    pub fn new() -> Self {
        Self {
            knobs: vec![
                Knob::new(
                    "rate",
                    vec![
                        KnobValue::Float(0.2),
                        KnobValue::Float(0.5),
                        KnobValue::Float(1.0),
                    ],
                ),
                Knob::new(
                    "model",
                    vec![KnobValue::Text("small"), KnobValue::Text("large")],
                ),
            ],
            seg_len: 2.0,
        }
    }

    fn rate(&self, config: &KnobConfig) -> f64 {
        config
            .value(&self.knobs, 0)
            .as_float()
            .expect("rate knob is numeric")
    }

    fn large_model(&self, config: &KnobConfig) -> bool {
        config.value(&self.knobs, 1).as_text() == Some("large")
    }

    /// Capability in `[0.38, 1.0]`.
    pub fn capability(&self, config: &KnobConfig) -> f64 {
        0.30 + 0.40 * self.rate(config) + if self.large_model(config) { 0.30 } else { 0.0 }
    }
}

impl Default for ToyWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for ToyWorkload {
    fn name(&self) -> &str {
        "toy"
    }

    fn knobs(&self) -> &[Knob] {
        &self.knobs
    }

    fn segment_len(&self) -> f64 {
        self.seg_len
    }

    fn task_graph(&self, config: &KnobConfig, content: &ContentState) -> TaskGraph {
        let rate = self.rate(config);
        let model_mult = if self.large_model(config) { 3.0 } else { 1.0 };
        let mut g = TaskGraph::new();
        let decode = g.add_node(TaskNode::new("decode", 0.05 * self.seg_len, 0.0));
        let detect = g.add_node(
            TaskNode::new(
                "detect",
                0.9 * rate * model_mult * self.seg_len,
                0.5 * rate * model_mult,
            )
            .with_payload(2.0e6 * rate, 1.0e4),
        );
        let track = g.add_node(
            TaskNode::new(
                "track",
                0.25 * rate * (0.5 + content.activity) * self.seg_len,
                0.15,
            )
            .with_payload(1.0e5, 1.0e4),
        );
        g.add_edge(decode, detect);
        g.add_edge(detect, track);
        g
    }

    fn true_quality(&self, config: &KnobConfig, content: &ContentState) -> f64 {
        logistic_quality(self.capability(config), content.difficulty)
    }

    fn reported_quality(
        &self,
        config: &KnobConfig,
        content: &ContentState,
        rng: &mut StdRng,
    ) -> f64 {
        noisy(self.true_quality(config, content), 0.02, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logistic_quality_shape() {
        // Overpowered ⇒ ~1; matched ⇒ decent; underpowered ⇒ collapse.
        assert!(logistic_quality(1.0, 0.0) > 0.999);
        assert!(logistic_quality(1.0, 1.0) > 0.9);
        assert!((0.6..0.95).contains(&logistic_quality(0.5, 0.5)));
        assert!(logistic_quality(0.3, 0.9) < 0.05);
    }

    #[test]
    fn capability_is_monotone_in_knobs() {
        let w = ToyWorkload::new();
        let space = w.config_space();
        let caps: Vec<f64> = space.iter().map(|c| w.capability(&c)).collect();
        let min = caps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = caps.iter().cloned().fold(0.0f64, f64::max);
        assert!((min - 0.38).abs() < 1e-9);
        assert!((max - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noise_is_small_and_clamped() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            let v = noisy(0.99, 0.02, &mut rng);
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
