//! The workload contract: what a V-ETL user provides to Skyscraper.
//!
//! A workload is (1) a set of UDFs arranged in a DAG per knob configuration,
//! (2) the registered knobs with their domains, and (3) a *quality metric*
//! that the user code measures and returns while processing (§2.1, §4.2,
//! Appendix F). Skyscraper is deliberately agnostic to everything else — it
//! never inspects frames, which is why a synthetic workload with calibrated
//! cost/quality responses exercises the identical decision logic as the
//! paper's YOLO/KCF/TransMOT pipelines.

use rand::rngs::StdRng;

use vetl_sim::TaskGraph;
use vetl_video::ContentState;

use crate::knob::{ConfigSpace, Knob, KnobConfig, KnobValue};

/// A user-defined V-ETL workload.
///
/// Workloads must be `Send + Sync`: the offline phase scatters profiling,
/// hill-climbing and labelling across a worker pool, and every worker
/// evaluates the same shared workload object (all methods take `&self`).
pub trait Workload: Send + Sync {
    /// Workload name (for reports).
    fn name(&self) -> &str;

    /// The registered knobs, in a fixed order.
    fn knobs(&self) -> &[Knob];

    /// Segment length in seconds — the knob-switching granularity
    /// (2 s for COVID/MOT, 7 s for MOSEI; §5.2, Appendix K.1).
    fn segment_len(&self) -> f64;

    /// Build the task graph executed when processing one segment of
    /// `content` under `config`. Node runtimes may depend on the content
    /// (more objects ⇒ more tracker work).
    fn task_graph(&self, config: &KnobConfig, content: &ContentState) -> TaskGraph;

    /// Rebuild the task graph for (`config`, `content`) **into** `g`,
    /// reusing its allocations. The result must be bitwise-identical to
    /// what [`Self::task_graph`] returns for the same arguments (the ingest
    /// session property-tests this); `g` must be either empty or a graph
    /// previously filled by *this* workload.
    ///
    /// The ingest hot path calls this once per segment with a per-session
    /// cached graph. Workloads whose topology (node names and edges) does
    /// not depend on config or content — all of the paper's pipelines —
    /// should build the skeleton only when `g` is empty and then overwrite
    /// the node costs/payloads in place, so the steady state never touches
    /// the allocator. The default implementation just rebuilds from
    /// scratch, which is always correct.
    fn task_graph_into(&self, config: &KnobConfig, content: &ContentState, g: &mut TaskGraph) {
        *g = self.task_graph(config, content);
    }

    /// Ground-truth quality of `config` on `content`, in `[0, 1]` relative
    /// to the best achievable. Only the *Optimum* oracle and evaluation
    /// metrics may consult this.
    fn true_quality(&self, config: &KnobConfig, content: &ContentState) -> f64;

    /// The quality metric the user code reports while processing — a noisy
    /// observation of [`Self::true_quality`] (detector confidences, tracker
    /// error counts, model certainty; §5.2).
    fn reported_quality(
        &self,
        config: &KnobConfig,
        content: &ContentState,
        rng: &mut StdRng,
    ) -> f64;

    /// The full configuration space spanned by [`Self::knobs`].
    fn config_space(&self) -> ConfigSpace {
        ConfigSpace::new(self.knobs())
    }

    /// Total on-premise work of processing one segment of `content` under
    /// `config`, in reference-core-seconds.
    fn work(&self, config: &KnobConfig, content: &ContentState) -> f64 {
        self.task_graph(config, content).total_onprem_secs()
    }

    /// Work rate of a configuration: core-seconds of compute per second of
    /// video, at the given content.
    fn work_rate(&self, config: &KnobConfig, content: &ContentState) -> f64 {
        self.work(config, content) / self.segment_len()
    }

    /// Stable identity of this workload: name, segment length, and the full
    /// knob registry (names, domains). A fit's `FitStamp` carries this
    /// fingerprint — changing the knob space makes a refit run cold and a
    /// saved knowledge base refuse to load. Workloads whose
    /// cost/quality responses have additional tunable parameters should
    /// override this and fold those in.
    fn fingerprint(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv::new();
        h.eat_str(self.name());
        h.eat_f64(self.segment_len());
        for knob in self.knobs() {
            h.eat_str(&knob.name);
            h.eat(knob.domain.len() as u64);
            for value in &knob.domain {
                match value {
                    KnobValue::Int(v) => {
                        h.eat(1).eat(*v as u64);
                    }
                    KnobValue::Float(v) => {
                        h.eat(2).eat_f64(*v);
                    }
                    KnobValue::Text(v) => {
                        h.eat(3).eat_str(v);
                    }
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ToyWorkload;
    use rand::SeedableRng;
    use vetl_video::{ContentParams, ContentProcess};

    #[test]
    fn toy_workload_honours_the_contract() {
        let w = ToyWorkload::new();
        assert!(!w.knobs().is_empty());
        assert!(w.segment_len() > 0.0);
        let space = w.config_space();
        assert!(space.size() > 1);

        let mut proc = ContentProcess::new(ContentParams::default(), w.segment_len());
        let content = proc.step();
        let mut rng = StdRng::seed_from_u64(1);
        for config in space.iter() {
            let g = w.task_graph(&config, &content);
            assert!(!g.is_empty());
            let q = w.true_quality(&config, &content);
            assert!((0.0..=1.0).contains(&q));
            let r = w.reported_quality(&config, &content, &mut rng);
            assert!((0.0..=1.0).contains(&r));
            assert!(w.work(&config, &content) > 0.0);
        }
    }

    #[test]
    fn expensive_configs_do_better_on_hard_content() {
        let w = ToyWorkload::new();
        let space = w.config_space();
        let mut proc = ContentProcess::new(ContentParams::default(), w.segment_len());
        let mut hard = proc.step();
        hard.difficulty = 0.95;
        let cheap_q = w.true_quality(&space.min_config(), &hard);
        let best_q = w.true_quality(&space.max_config(), &hard);
        assert!(best_q > cheap_q + 0.2, "best {best_q} vs cheap {cheap_q}");
        // And the expensive config costs more.
        assert!(w.work(&space.max_config(), &hard) > w.work(&space.min_config(), &hard));
    }

    #[test]
    fn fingerprint_is_stable_and_knob_sensitive() {
        let w = ToyWorkload::new();
        assert_eq!(w.fingerprint(), ToyWorkload::new().fingerprint());

        struct Renamed(ToyWorkload);
        impl Workload for Renamed {
            fn name(&self) -> &str {
                "toy-renamed"
            }
            fn knobs(&self) -> &[Knob] {
                self.0.knobs()
            }
            fn segment_len(&self) -> f64 {
                self.0.segment_len()
            }
            fn task_graph(&self, c: &KnobConfig, s: &ContentState) -> TaskGraph {
                self.0.task_graph(c, s)
            }
            fn true_quality(&self, c: &KnobConfig, s: &ContentState) -> f64 {
                self.0.true_quality(c, s)
            }
            fn reported_quality(&self, c: &KnobConfig, s: &ContentState, r: &mut StdRng) -> f64 {
                self.0.reported_quality(c, s, r)
            }
        }
        assert_ne!(
            w.fingerprint(),
            Renamed(ToyWorkload::new()).fingerprint(),
            "name must distinguish workloads"
        );
    }
}
