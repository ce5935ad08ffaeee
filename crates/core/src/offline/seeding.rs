//! Deterministic sub-seed derivation for the parallel offline phase.
//!
//! The offline phase used to thread one `StdRng` sequentially through every
//! step, which made results depend on evaluation *order* — impossible to
//! parallelize without changing output. Instead, every stochastic evaluation
//! draws from its own generator seeded by a mix of the master seed, a
//! step tag, and the evaluation's *identity*. Since PR 3 that identity is the
//! bit-exact fingerprint of the evaluated `(content, configuration)` pair
//! rather than a positional index, so it is stable under recording growth.
//! Three consequences:
//!
//! * a parallel run and a single-worker run produce bit-identical
//!   [`FittedModel`](super::FittedModel)s, whatever the scheduling;
//! * re-evaluating the same `(config, content)` pair anywhere in the phase
//!   reproduces the same noisy quality draw, which is what makes the
//!   per-segment hill-climb cache sound;
//! * a segment draws the same noise in a fit on the original recording and
//!   in a fit on a grown one, so appending segments leaves the draws of the
//!   shared prefix unchanged.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vetl_video::ContentState;

use crate::fingerprint::{content_identity_bits, splitmix, Fnv};
use crate::knob::KnobConfig;

/// Step tags keeping the per-step generator families disjoint.
pub(crate) const TAG_SAMPLING: u64 = 1;
pub(crate) const TAG_CLIMB_EVAL: u64 = 2;
pub(crate) const TAG_CATEGORIZE: u64 = 3;
pub(crate) const TAG_LABEL: u64 = 4;
pub(crate) const TAG_RESIDUAL: u64 = 5;

/// Derive an independent sub-seed from `(master, tag, idx)`.
pub(crate) fn mix(master: u64, tag: u64, idx: u64) -> u64 {
    splitmix(splitmix(master ^ splitmix(tag)) ^ idx)
}

/// Order-independent fingerprint of a knob configuration (FNV-1a over the
/// domain indices).
pub(crate) fn config_fingerprint(config: &KnobConfig) -> u64 {
    let mut h = Fnv::new();
    for &i in config.indices() {
        h.eat(i as u64);
    }
    h.finish()
}

/// Bit-exact fingerprint of a content state (folds the shared
/// [`content_identity_bits`] — the single definition of content identity).
/// Two contents fingerprint equally iff every latent field is bitwise
/// identical — segment timestamps make real contents unique, so distinct
/// segments always draw distinct noise.
pub(crate) fn content_fingerprint(content: &ContentState) -> u64 {
    let mut h = Fnv::new();
    for bits in content_identity_bits(content) {
        h.eat(bits);
    }
    h.finish()
}

/// Generator for one `(content, config)` evaluation of step `tag`. The
/// identity is fully determined by the master seed, the step, and the exact
/// bits of the evaluated pair — never by evaluation order, worker count, or
/// the length of the recording the pair was drawn from.
pub(crate) fn keyed_rng(master: u64, tag: u64, content_fp: u64, config_fp: u64) -> StdRng {
    StdRng::seed_from_u64(mix(master, tag, splitmix(content_fp) ^ config_fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use vetl_video::SimTime;

    fn content(t: f64, difficulty: f64) -> ContentState {
        ContentState {
            time: SimTime::from_secs(t),
            difficulty,
            activity: 0.4,
            event_active: false,
        }
    }

    #[test]
    fn sub_seeds_are_distinct_across_tags_and_indices() {
        let mut seen = std::collections::HashSet::new();
        for tag in [
            TAG_SAMPLING,
            TAG_CLIMB_EVAL,
            TAG_CATEGORIZE,
            TAG_LABEL,
            TAG_RESIDUAL,
        ] {
            for idx in 0..1000 {
                assert!(
                    seen.insert(mix(42, tag, idx)),
                    "collision at tag {tag} idx {idx}"
                );
            }
        }
    }

    #[test]
    fn keyed_rng_is_reproducible_and_identity_sensitive() {
        let a = KnobConfig::new(vec![0, 1, 2]);
        let b = KnobConfig::new(vec![0, 1, 3]);
        let c1 = content(10.0, 0.3);
        let c2 = content(12.0, 0.3);
        let draw = |content: &ContentState, config: &KnobConfig, tag: u64| {
            keyed_rng(
                7,
                tag,
                content_fingerprint(content),
                config_fingerprint(config),
            )
            .next_u64()
        };
        // Reproducible.
        assert_eq!(draw(&c1, &a, TAG_CLIMB_EVAL), draw(&c1, &a, TAG_CLIMB_EVAL));
        // Sensitive to config, content, and tag.
        assert_ne!(draw(&c1, &a, TAG_CLIMB_EVAL), draw(&c1, &b, TAG_CLIMB_EVAL));
        assert_ne!(draw(&c1, &a, TAG_CLIMB_EVAL), draw(&c2, &a, TAG_CLIMB_EVAL));
        assert_ne!(draw(&c1, &a, TAG_CLIMB_EVAL), draw(&c1, &a, TAG_LABEL));
    }

    #[test]
    fn content_fingerprint_is_bit_exact() {
        let c1 = content(10.0, 0.3);
        let mut c2 = c1;
        assert_eq!(content_fingerprint(&c1), content_fingerprint(&c2));
        c2.difficulty = 0.3 + 1e-16;
        // Same f64 bits ⇒ same fingerprint; a genuinely different value
        // (next representable float) differs.
        if c2.difficulty.to_bits() == c1.difficulty.to_bits() {
            c2.difficulty = f64::from_bits(c1.difficulty.to_bits() + 1);
        }
        assert_ne!(content_fingerprint(&c1), content_fingerprint(&c2));
    }
}
