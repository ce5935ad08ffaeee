//! Video sources.
//!
//! [`SyntheticCamera`] stands in for the paper's live camera feeds: it joins
//! a [`ContentProcess`] with the codec models and emits [`Segment`]s at the
//! stream's real-time rate. [`StreamCountProcess`] reproduces the MOSEI
//! workloads' *varying number of concurrent Twitch streams*, including the
//! two synthetic spike patterns (§5.2):
//!
//! * **MOSEI-HIGH** — short, tall peaks (62 concurrent streams) that defeat
//!   cloud bursting through uplink bandwidth limits;
//! * **MOSEI-LONG** — one long sustained plateau that defeats buffering
//!   because the buffer fills early and stays full.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::{BitrateModel, CodecParams};
use crate::content::{ContentParams, ContentProcess};
use crate::segment::Segment;
use crate::time::{SimTime, SECONDS_PER_DAY};

/// A synthetic live camera: a content process plus codec models, emitting
/// segments in stream order.
#[derive(Debug, Clone)]
pub struct SyntheticCamera {
    process: ContentProcess,
    codec: CodecParams,
    bitrate: BitrateModel,
    next_index: u64,
}

impl SyntheticCamera {
    /// Create a camera emitting one segment every `seg_len` seconds.
    pub fn new(content: ContentParams, seg_len: f64) -> Self {
        Self {
            process: ContentProcess::new(content, seg_len),
            codec: CodecParams::default(),
            bitrate: BitrateModel::default(),
            next_index: 0,
        }
    }

    /// Codec parameters of this stream.
    pub fn codec(&self) -> CodecParams {
        self.codec
    }

    /// Bitrate model of this stream.
    pub fn bitrate(&self) -> BitrateModel {
        self.bitrate
    }

    /// Segment duration in seconds.
    pub fn segment_len(&self) -> f64 {
        self.process.segment_len()
    }

    /// Produce the next segment.
    pub fn next_segment(&mut self) -> Segment {
        let content = self.process.step();
        let bytes = self
            .bitrate
            .bytes(self.process.segment_len(), content.activity);
        let seg = Segment {
            index: self.next_index,
            duration: self.process.segment_len(),
            content,
            bytes,
        };
        self.next_index += 1;
        seg
    }

    /// Produce `n` consecutive segments.
    pub fn take_segments(&mut self, n: usize) -> Vec<Segment> {
        (0..n).map(|_| self.next_segment()).collect()
    }

    /// Skip `n` segments (fast-forward without materializing).
    pub fn skip(&mut self, n: usize) {
        for _ in 0..n {
            let _ = self.next_segment();
        }
    }
}

impl Iterator for SyntheticCamera {
    type Item = Segment;
    fn next(&mut self) -> Option<Segment> {
        Some(self.next_segment())
    }
}

/// Spike pattern of the MOSEI workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoseiMode {
    /// Short, tall peaks to 62 concurrent streams.
    High,
    /// One long sustained plateau.
    Long,
}

/// Number of concurrently incoming Twitch-like streams over time.
///
/// The baseline curve mimics the diurnal shape of Twitch's active-streamer
/// counts (evening peak), scaled to `base_max` streams; the spike pattern is
/// layered on top.
#[derive(Debug, Clone)]
pub struct StreamCountProcess {
    mode: MoseiMode,
    base_min: usize,
    base_max: usize,
    spike_level: usize,
    rng: StdRng,
    seg_len: f64,
    t: f64,
    /// Remaining seconds of an active HIGH spike (0 = none).
    spike_remaining: f64,
}

impl StreamCountProcess {
    /// Create a stream-count process with the paper's levels (spikes of 62
    /// concurrent streams for HIGH).
    pub fn new(mode: MoseiMode, seg_len: f64, seed: u64) -> Self {
        Self {
            mode,
            base_min: 10,
            base_max: 40,
            spike_level: 62,
            rng: StdRng::seed_from_u64(seed),
            seg_len,
            t: 0.0,
            spike_remaining: 0.0,
        }
    }

    /// Spike stream level.
    pub fn spike_level(&self) -> usize {
        self.spike_level
    }

    /// Baseline (no spike) count at time `t`: twitch-like evening peak.
    fn baseline(&self, time: SimTime) -> usize {
        let h = time.hour_of_day();
        let mut d = (h - 20.0).abs();
        if d > 12.0 {
            d = 24.0 - d;
        }
        let bump = (-0.5 * (d / 4.0) * (d / 4.0)).exp();
        let range = (self.base_max - self.base_min) as f64;
        self.base_min + (range * bump).round() as usize
    }

    /// Whether a LONG-mode plateau is active at `time`: one 6-hour plateau
    /// per day starting at 14:00.
    fn long_plateau(&self, time: SimTime) -> bool {
        let h = time.hour_of_day();
        (14.0..20.0).contains(&h)
    }

    /// Number of concurrent streams for the next segment.
    pub fn step(&mut self) -> usize {
        let time = SimTime::from_secs(self.t);
        self.t += self.seg_len;
        let base = self.baseline(time);
        match self.mode {
            MoseiMode::High => {
                if self.spike_remaining > 0.0 {
                    self.spike_remaining -= self.seg_len;
                    return self.spike_level;
                }
                // ~6 short spikes per day, 2–5 minutes each.
                let p_per_sec = 6.0 / SECONDS_PER_DAY;
                if self.rng.gen::<f64>() < p_per_sec * self.seg_len {
                    self.spike_remaining = 120.0 + self.rng.gen::<f64>() * 180.0;
                    return self.spike_level;
                }
                base
            }
            MoseiMode::Long => {
                if self.long_plateau(time) {
                    // Long plateau at ~72 % of the HIGH spike level.
                    (self.spike_level as f64 * 0.72).round() as usize
                } else {
                    base
                }
            }
        }
    }

    /// Generate counts for `n` segments.
    pub fn take_counts(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn camera_segments_are_consecutive() {
        let mut cam = SyntheticCamera::new(ContentParams::default(), 2.0);
        let segs = cam.take_segments(10);
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s.index, i as u64);
            assert!((s.start().as_secs() - 2.0 * i as f64).abs() < 1e-9);
            assert!(s.bytes > 0.0);
        }
    }

    #[test]
    fn camera_bitrate_tracks_activity() {
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(11), 2.0);
        let segs = cam.take_segments((SECONDS_PER_DAY / 2.0) as usize);
        let busy: Vec<&Segment> = segs.iter().filter(|s| s.content.activity > 0.7).collect();
        let quiet: Vec<&Segment> = segs.iter().filter(|s| s.content.activity < 0.2).collect();
        assert!(!busy.is_empty() && !quiet.is_empty());
        let avg = |v: &[&Segment]| v.iter().map(|s| s.bytes).sum::<f64>() / v.len() as f64;
        assert!(avg(&busy) > avg(&quiet));
    }

    #[test]
    fn high_mode_reaches_62_streams() {
        let mut p = StreamCountProcess::new(MoseiMode::High, 7.0, 1);
        let counts = p.take_counts((2.0 * SECONDS_PER_DAY / 7.0) as usize);
        assert_eq!(counts.iter().max().copied().unwrap(), 62);
        // Spikes are short: the 62-level must be a small share of time.
        let at_peak = counts.iter().filter(|&&c| c == 62).count() as f64 / counts.len() as f64;
        assert!(at_peak < 0.1, "HIGH spikes should be short, got {at_peak}");
    }

    #[test]
    fn long_mode_has_sustained_plateau() {
        let mut p = StreamCountProcess::new(MoseiMode::Long, 7.0, 1);
        let counts = p.take_counts((SECONDS_PER_DAY / 7.0) as usize);
        let plateau = (62.0f64 * 0.72).round() as usize;
        let at_plateau = counts.iter().filter(|&&c| c == plateau).count() as f64;
        let frac = at_plateau * 7.0 / SECONDS_PER_DAY;
        assert!(
            (0.2..0.3).contains(&frac),
            "plateau covers {frac} of the day, expected ~0.25"
        );
    }

    #[test]
    fn baseline_peaks_in_the_evening() {
        let p = StreamCountProcess::new(MoseiMode::High, 7.0, 1);
        let evening = p.baseline(SimTime::from_hours(20.0));
        let morning = p.baseline(SimTime::from_hours(6.0));
        assert!(evening > morning);
    }
}
