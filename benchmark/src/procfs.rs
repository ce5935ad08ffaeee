//! Resident-set size read from `/proc/self/status` (CPU time comes from
//! [`crate::cpu`]).

use std::fs;

/// A `Vm*` line of `/proc/<pid>/status` in kilobytes.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn status_mb(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, key))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// How a workload's peak resident set is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RssSource {
    /// `VmHWM` after resetting the high-water mark at workload start.
    HighWaterMark,
    /// The reset was refused: the maximum of `VmRSS` sampled at window
    /// edges, which can miss a short spike.
    Sampled,
}

impl RssSource {
    /// Name recorded beside `peak_rss_mb`.
    pub fn name(self) -> &'static str {
        match self {
            RssSource::HighWaterMark => "VmHWM",
            RssSource::Sampled => "VmRSS-sampled",
        }
    }
}

/// Peak resident set of one workload.
#[derive(Debug)]
pub struct RssMeter {
    source: RssSource,
    sampled_mb: f64,
}

impl RssMeter {
    /// Begin measuring: reset the kernel's high-water mark (writing `5` to
    /// `/proc/self/clear_refs`), or fall back to sampling.
    pub fn start() -> Self {
        let source = match fs::write("/proc/self/clear_refs", "5") {
            Ok(()) => RssSource::HighWaterMark,
            Err(_) => RssSource::Sampled,
        };
        Self {
            source,
            sampled_mb: status_mb("VmRSS"),
        }
    }

    /// Take a sample (cheap; called at window edges).
    pub fn sample(&mut self) {
        if self.source == RssSource::Sampled {
            self.sampled_mb = self.sampled_mb.max(status_mb("VmRSS"));
        }
    }

    /// Peak resident megabytes since [`start`](Self::start), and how it was
    /// obtained.
    pub fn peak_mb(&mut self) -> (f64, RssSource) {
        self.sample();
        match self.source {
            RssSource::HighWaterMark => (status_mb("VmHWM"), self.source),
            RssSource::Sampled => (self.sampled_mb, self.source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse_to_kilobytes() {
        let status = "Name:\tcat\nVmHWM:\t    1624 kB\nVmRSS:\t     812 kB\nThreads:\t1\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(1624));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(812));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM:\t12 MB\n", "VmHWM"), None);
    }

    #[test]
    fn live_proc_files_are_readable() {
        let mut rss = RssMeter::start();
        let (mb, _) = rss.peak_mb();
        assert!(mb > 0.0, "resident set of a running test is not empty");
    }
}
