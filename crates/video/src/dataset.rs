//! Recorded datasets for the offline phase.
//!
//! Skyscraper's offline phase consumes a small *labeled* set (~20 minutes)
//! and a large *unlabeled* set (~2 weeks) recorded from the same source that
//! will later be ingested live (§3). A [`Recording`] is such a dataset; the
//! online stream then continues from where the recording stopped, exactly as
//! a real deployment would replay history before going live.

use crate::segment::Segment;
use crate::source::SyntheticCamera;
use crate::time::SimTime;

/// A contiguous recording of segments from one source.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    segments: Vec<Segment>,
}

impl Recording {
    /// Record `duration_secs` seconds from the camera (which advances).
    pub fn record(camera: &mut SyntheticCamera, duration_secs: f64) -> Self {
        assert!(duration_secs > 0.0, "recording duration must be positive");
        let n = (duration_secs / camera.segment_len()).ceil() as usize;
        Self {
            segments: camera.take_segments(n),
        }
    }

    /// Build a recording from pre-existing segments.
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        Self { segments }
    }

    /// All segments, in stream order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the recording holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total duration in seconds.
    pub fn duration(&self) -> f64 {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// Start time of the first segment ([`SimTime::ZERO`] when empty).
    pub fn start(&self) -> SimTime {
        self.segments.first().map_or(SimTime::ZERO, |s| s.start())
    }

    /// End time of the last segment.
    pub fn end(&self) -> SimTime {
        self.segments.last().map_or(SimTime::ZERO, |s| s.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentParams;

    fn camera() -> SyntheticCamera {
        SyntheticCamera::new(ContentParams::default(), 2.0)
    }

    #[test]
    fn record_produces_requested_duration() {
        let mut cam = camera();
        let rec = Recording::record(&mut cam, 600.0);
        assert_eq!(rec.len(), 300);
        assert!((rec.duration() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn recording_continues_the_stream() {
        let mut cam = camera();
        let rec = Recording::record(&mut cam, 100.0);
        let next = cam.next_segment();
        assert!((next.start().as_secs() - rec.end().as_secs()).abs() < 1e-9);
    }

    #[test]
    fn empty_recording_defaults() {
        let rec = Recording::default();
        assert!(rec.is_empty());
        assert_eq!(rec.duration(), 0.0);
        assert_eq!(rec.start().as_secs(), 0.0);
    }
}
