//! Encoded-video size and decode-cost models.
//!
//! Calibrated to the paper's measurements (§5.1 and Appendix K.2):
//!
//! * one HD H.264 traffic-camera feed produces ≈ 7.8 GB/day ≈ 90 KB/s,
//!   modulated by scene activity (motion costs bits);
//! * decoding one frame takes ≈ 1.6 ms on a reference core — about 5 % of
//!   the total processing work;
//! * frames shipped to the cloud are JPEG-compressed and Base64-encoded
//!   before being sent over HTTPS (§5.1), inflating the payload by 4/3.

/// Static stream parameters.
#[derive(Debug, Clone, Copy)]
pub struct CodecParams {
    /// Frames per second of the source (paper: 30).
    pub fps: f64,
    /// Frame width in pixels (paper: 1280).
    pub width: u32,
    /// Frame height in pixels (paper: 720).
    pub height: u32,
}

impl Default for CodecParams {
    fn default() -> Self {
        Self {
            fps: 30.0,
            width: 1280,
            height: 720,
        }
    }
}

impl CodecParams {
    /// Pixels per frame.
    pub fn pixels(&self) -> u64 {
        self.width as u64 * self.height as u64
    }
}

/// H.264 bitrate model: bytes produced per second of video as a function of
/// scene activity.
#[derive(Debug, Clone, Copy)]
pub struct BitrateModel {
    /// Mean bytes per second at average activity (~90 KB/s for the paper's
    /// 7.8 GB/day feed).
    pub mean_bytes_per_sec: f64,
    /// Relative swing with activity: rate = mean · (1 - swing/2 + swing·a).
    pub activity_swing: f64,
}

impl Default for BitrateModel {
    fn default() -> Self {
        Self {
            mean_bytes_per_sec: 90_000.0,
            activity_swing: 0.9,
        }
    }
}

impl BitrateModel {
    /// Encoded bytes for `secs` seconds of video at `activity ∈ [0,1]`.
    pub fn bytes(&self, secs: f64, activity: f64) -> f64 {
        let a = activity.clamp(0.0, 1.0);
        self.mean_bytes_per_sec * secs * (1.0 - self.activity_swing / 2.0 + self.activity_swing * a)
    }
}

/// CPU cost of H.264 decode.
#[derive(Debug, Clone, Copy)]
pub struct DecodeCostModel {
    /// Core-seconds to decode one frame on a reference core (paper: 1.6 ms).
    pub secs_per_frame: f64,
}

impl Default for DecodeCostModel {
    fn default() -> Self {
        Self {
            secs_per_frame: 0.0016,
        }
    }
}

impl DecodeCostModel {
    /// Core-seconds to decode `secs` seconds of video at `fps`, at the frame
    /// rate actually consumed (`rate_fraction` of source frames; decode of
    /// skipped frames is still partially necessary for H.264 reference
    /// chains, modelled at 30 % cost).
    pub fn cost(&self, secs: f64, fps: f64, rate_fraction: f64) -> f64 {
        let r = rate_fraction.clamp(0.0, 1.0);
        let full = secs * fps * self.secs_per_frame;
        full * (r + 0.3 * (1.0 - r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bitrate_matches_paper_volume() {
        // 7.8 GB/day at average activity (a = 0.5 makes the swing cancel).
        let m = BitrateModel::default();
        let per_day = m.bytes(86_400.0, 0.5);
        assert!((per_day - 7.776e9).abs() / 7.776e9 < 0.01, "got {per_day}");
    }

    #[test]
    fn busier_scenes_cost_more_bits() {
        let m = BitrateModel::default();
        assert!(m.bytes(1.0, 0.9) > m.bytes(1.0, 0.1));
        assert!(m.bytes(1.0, 0.0) > 0.0);
    }

    #[test]
    fn decode_cost_is_about_five_percent_of_yolo_pipeline() {
        // Paper: decode 1.6 ms/frame vs YOLO 86 ms/frame ⇒ ~2 % per frame;
        // amortized over detect-to-track pipelines decode lands near 5 %.
        let d = DecodeCostModel::default();
        let one_second_full = d.cost(1.0, 30.0, 1.0);
        assert!((one_second_full - 0.048).abs() < 1e-9);
    }

    #[test]
    fn skipped_frames_still_cost_some_decode() {
        let d = DecodeCostModel::default();
        let full = d.cost(1.0, 30.0, 1.0);
        let sampled = d.cost(1.0, 30.0, 0.0);
        assert!(sampled > 0.0);
        assert!(sampled < full * 0.5);
    }

    #[test]
    fn codec_params_pixels() {
        assert_eq!(CodecParams::default().pixels(), 1280 * 720);
    }
}
