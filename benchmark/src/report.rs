//! What a run produces: per-workload results, the environment stamp, the
//! result file `compare` reads, and the history line `run` appends.

use std::io::Write;
use std::path::Path;

use crate::json::Json;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, costs).
    Lower,
    /// Larger is better (rates, quality).
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Definition of one end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Normative name.
    pub name: &'static str,
    /// Unit, in the character set `BENCHMARK.json` allows.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the reference by which the metric may worsen between two
    /// runs of the same code before `compare` calls it a regression. Only
    /// used for metrics `BENCHMARK.json` does not list (it overrides).
    pub bound: f64,
    /// Reported by every workload, never zero: listed in
    /// `BENCHMARK.json`'s `end_to_end` and emitted in driver mode.
    pub everywhere: bool,
}

/// The 14 end-to-end metrics of the issue, in report order. The eight
/// marked `everywhere` are defined on all six workloads and never zero:
/// they are `BENCHMARK.json`'s `end_to_end`. The other six exist on one
/// workload only, are zero on some, or are expected to be exactly zero;
/// `run` prints them and this crate's own `compare` judges them.
pub const END_TO_END: [MetricDef; 14] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        everywhere: true,
    },
    MetricDef {
        name: "ingest_segs_per_s",
        unit: "segs/s",
        better: Better::Higher,
        bound: 0.25,
        everywhere: true,
    },
    MetricDef {
        name: "cpu_us_per_seg",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        everywhere: true,
    },
    MetricDef {
        name: "admit_fleet_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        everywhere: true,
    },
    MetricDef {
        name: "open_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        everywhere: true,
    },
    MetricDef {
        name: "open_ms_p99",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        everywhere: false,
    },
    MetricDef {
        name: "ack_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        everywhere: false,
    },
    MetricDef {
        name: "ack_age_ms_p99",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        everywhere: false,
    },
    MetricDef {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        everywhere: false,
    },
    MetricDef {
        name: "quality_mean",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
        everywhere: true,
    },
    MetricDef {
        name: "cloud_usd_per_kseg",
        unit: "usd",
        better: Better::Lower,
        bound: 1e-12,
        everywhere: false,
    },
    MetricDef {
        name: "work_core_s_per_seg",
        unit: "core-s",
        better: Better::Lower,
        bound: 0.15,
        everywhere: true,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        everywhere: true,
    },
    MetricDef {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 1e-12,
        everywhere: false,
    },
];

/// Look an end-to-end metric up by name.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Spread between this run's own windows or repetitions, as a share of
    /// their median (0 for a single measurement) — what `compare` tests
    /// against the bound before it trusts a difference.
    pub spread: f64,
    /// How the value was obtained: sample count, percentile used, windows.
    pub note: String,
}

/// One correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// End-to-end metrics measured on this workload (without `setup_s`,
    /// which is run-level).
    pub metrics: Vec<Metric>,
    /// Conservation and cross-engine checks.
    pub checks: Vec<Check>,
    /// Operations attempted (opens, pushes, closes, recoveries, finishes).
    pub attempted: u64,
    /// Operations that failed or were refused terminally.
    pub failed: u64,
    /// The error that ended the workload early, if one did.
    pub error: Option<String>,
    /// Outcome fingerprint: information, not a gate.
    pub fingerprint: u64,
    /// Facts worth printing beside the metrics (retries, RSS source, …).
    pub facts: Vec<(&'static str, String)>,
    /// Rates of the epoch-aligned windows, in schedule order, segments/s.
    pub window_rates: Vec<f64>,
    /// Latency of every open, in admission order, milliseconds.
    pub open_ms: Vec<f64>,
    /// Values the per-layer metrics are derived from (traced runs).
    pub layer: Vec<(&'static str, f64)>,
    /// Wall seconds the workload took, checks included.
    pub wall_s: f64,
}

impl WorkloadResult {
    /// Every check held, nothing failed, and the workload ran to its end.
    pub fn correct(&self) -> bool {
        self.error.is_none() && self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// A layer input by name (0 when the workload did not produce it).
    pub fn layer(&self, name: &str) -> f64 {
        self.layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Print the workload's block of the human-readable report.
    pub fn print(&self) {
        println!(
            "\n== {} ==  ({:.1} s, {} operations, {} failed, fingerprint {:016x})",
            self.name, self.wall_s, self.attempted, self.failed, self.fingerprint
        );
        for m in &self.metrics {
            println!(
                "  {:<22} {:>16.6} {:<7} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for (k, v) in &self.facts {
            println!("  · {k}: {v}");
        }
        for c in &self.checks {
            println!(
                "  [{}] {} — {}",
                if c.ok { "ok" } else { "FAILED" },
                c.name,
                c.detail
            );
        }
        if let Some(e) = &self.error {
            println!("  [FAILED] workload aborted: {e}");
        }
    }
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct EnvStamp {
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Worker shards passed to every runtime.
    pub shards: usize,
    /// The benchmark seed.
    pub seed: u64,
    /// Factor the issue's default round counts were scaled by.
    pub scale: f64,
    /// `rustc --version`.
    pub rustc: String,
    /// Transport of the wire workloads.
    pub endpoint: &'static str,
    /// Wall seconds of the whole invocation.
    pub total_s: f64,
}

impl EnvStamp {
    /// Collect the stamp (`total_s` is filled in at the end of the run).
    pub fn collect(seed: u64, scale: f64, nproc: usize, shards: usize) -> Self {
        let cmd = |prog: &str, args: &[&str]| {
            std::process::Command::new(prog)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".into())
        };
        Self {
            commit: cmd("git", &["rev-parse", "--short=12", "HEAD"]),
            nproc,
            shards,
            seed,
            scale,
            rustc: cmd("rustc", &["--version"]),
            endpoint: "unix-socket, same host, server in-process on a scoped thread",
            total_s: 0.0,
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("commit", Json::str(&self.commit)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("shards", Json::Num(self.shards as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("scale", Json::Num(self.scale)),
            ("rustc", Json::str(&self.rustc)),
            ("endpoint", Json::str(self.endpoint)),
            ("total_s", Json::Num(self.total_s)),
        ])
    }

    /// Print the stamp as the report's header.
    pub fn print(&self) {
        println!(
            "commit {} · rustc {} · nproc {} · shards {} · seed {} · scale {} · endpoint: {}",
            self.commit, self.rustc, self.nproc, self.shards, self.seed, self.scale, self.endpoint
        );
    }
}

/// Set-up, measured `reps` times.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Median wall seconds of one full set-up.
    pub setup_s: f64,
    /// Spread across the repetitions, share of the median.
    pub spread: f64,
    /// Repetitions measured.
    pub reps: usize,
    /// Wall seconds of the offline fit alone, median.
    pub fit_s: f64,
}

/// The result document: stamp, set-up, every workload's metrics.
pub fn result_json(env: &EnvStamp, setup: &Setup, results: &[WorkloadResult]) -> Json {
    let workloads = results.iter().map(|r| {
        let mut metrics: Vec<(String, Json)> = vec![(
            "setup_s".into(),
            Json::obj([
                ("value", Json::Num(setup.setup_s)),
                ("unit", Json::str("s")),
                ("spread", Json::Num(setup.spread)),
            ]),
        )];
        metrics.extend(r.metrics.iter().map(|m| {
            (
                m.name.to_string(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                    ("spread", Json::Num(m.spread)),
                ]),
            )
        }));
        (
            r.name.to_string(),
            Json::obj([
                ("correct", Json::Bool(r.correct())),
                ("attempted", Json::Num(r.attempted as f64)),
                ("failed", Json::Num(r.failed as f64)),
                ("fingerprint", Json::str(format!("{:016x}", r.fingerprint))),
                ("metrics", Json::Obj(metrics)),
            ]),
        )
    });
    Json::obj([
        ("env", env.json()),
        ("workloads", Json::Obj(workloads.collect())),
    ])
}

/// One document out of the documents of single-workload runs: the first
/// one's stamp with `total_s` replaced, and every part's workloads in order.
pub fn merge_results(parts: &[Json], total_s: f64) -> Json {
    let env = parts
        .first()
        .and_then(|p| p.get("env"))
        .and_then(Json::as_obj);
    let env = env.unwrap_or(&[]).iter().map(|(k, v)| match k.as_str() {
        "total_s" => (k.clone(), Json::Num(total_s)),
        _ => (k.clone(), v.clone()),
    });
    let workloads = parts
        .iter()
        .filter_map(|p| p.get("workloads").and_then(Json::as_obj))
        .flatten()
        .cloned();
    Json::obj([
        ("env", Json::Obj(env.collect())),
        ("workloads", Json::Obj(workloads.collect())),
    ])
}

/// Write the result document over several lines, so files diff cleanly.
pub fn write_result(path: &Path, doc: &Json) -> std::io::Result<()> {
    std::fs::write(path, doc.render_pretty() + "\n")
}

/// Append the run to `history.jsonl` as one line: the trajectory that
/// survives result files being overwritten.
pub fn append_history(path: &Path, doc: &Json) -> std::io::Result<()> {
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(out, "{}", doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_metrics_with_unique_names_and_legal_units() {
        assert_eq!(END_TO_END.len(), 14);
        for (i, m) in END_TO_END.iter().enumerate() {
            assert!(END_TO_END[..i].iter().all(|o| o.name != m.name));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(metric_def("setup_s").unwrap().everywhere);
    }

    #[test]
    fn result_document_round_trips_through_the_parser() {
        let r = WorkloadResult {
            name: "short_epoch",
            metrics: vec![Metric {
                name: "ingest_segs_per_s",
                value: 145_000.5,
                unit: "segs/s",
                spread: 0.03,
                note: String::new(),
            }],
            attempted: 10,
            ..WorkloadResult::default()
        };
        let env = EnvStamp {
            commit: "abc".into(),
            nproc: 2,
            shards: 2,
            seed: 1,
            scale: 0.5,
            rustc: "rustc 1.0".into(),
            endpoint: "unix",
            total_s: 1.0,
        };
        let setup = Setup {
            setup_s: 0.3,
            spread: 0.1,
            reps: 3,
            fit_s: 0.2,
        };
        let doc = result_json(&env, &setup, &[r]);
        let back = Json::parse(&doc.render()).unwrap();
        let v = back
            .get("workloads")
            .and_then(|w| w.get("short_epoch"))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get("ingest_segs_per_s"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(v, Some(145_000.5));
        assert!(back
            .get("workloads")
            .and_then(|w| w.get("short_epoch"))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get("setup_s"))
            .is_some());

        // Single-workload documents merge into one, in order.
        let other = WorkloadResult {
            name: "churn_wire",
            ..WorkloadResult::default()
        };
        let merged = merge_results(&[doc, result_json(&env, &setup, &[other])], 9.5);
        let names: Vec<&str> = merged
            .get("workloads")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["short_epoch", "churn_wire"]);
        let env = merged.get("env").unwrap();
        assert_eq!(env.get("total_s").and_then(Json::as_f64), Some(9.5));
        assert_eq!(env.get("commit").and_then(Json::as_str), Some("abc"));
    }
}
