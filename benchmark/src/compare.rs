//! `compare A.json B.json`: one row per (workload, end-to-end metric),
//! judged against the metric's bound.

use crate::json::Json;
use crate::report::{metric_def, Better, END_TO_END};
use crate::stats::{iqr_share, median};

/// What two values of one metric say about each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// B improved on A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// A side's own windows spread wider than the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Value in A (the reference).
    pub a: f64,
    /// Value in B.
    pub b: f64,
    /// By how much B is worse than A, as a share of A (negative: better).
    pub worse_by: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge one pair. `spread` is the larger of the two sides' own spreads.
pub fn judge(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> (f64, Verdict) {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    let worse_by = if a != 0.0 {
        delta / a.abs()
    } else if delta == 0.0 {
        0.0
    } else {
        delta.signum() * f64::INFINITY
    };
    let verdict = if worse_by.abs() <= bound {
        Verdict::Same
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    (worse_by, verdict)
}

/// Bounds and directions: `BENCHMARK.json`'s `end_to_end` entries override
/// the built-in table, which covers the metrics that file cannot list.
pub struct Bounds {
    overrides: Vec<(String, Better, f64)>,
}

impl Bounds {
    /// Only the built-in table.
    pub fn builtin() -> Self {
        Self {
            overrides: Vec::new(),
        }
    }

    /// The built-in table overridden by a parsed `BENCHMARK.json`.
    pub fn from_manifest(manifest: &Json) -> Self {
        let overrides = manifest
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                let better = match m.get("better")?.as_str()? {
                    "higher" => Better::Higher,
                    _ => Better::Lower,
                };
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    better,
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect();
        Self { overrides }
    }

    /// Direction and bound of `metric`, if it is an end-to-end metric.
    pub fn of(&self, metric: &str) -> Option<(Better, f64)> {
        self.overrides
            .iter()
            .find(|(n, _, _)| n == metric)
            .map(|&(_, better, bound)| (better, bound))
            .or_else(|| metric_def(metric).map(|d| (d.better, d.bound)))
    }
}

/// One side of a comparison: a result document, or a set of them from
/// repeated runs of the same code.
///
/// A set stands for its median; its spread is the quartile distance of its
/// runs as a share of that median (with one run: the spread that run
/// recorded between its own windows).
fn side(set: &[Json], workload: &str, metric: &str) -> Option<(f64, f64)> {
    let mut values = Vec::new();
    let mut own_spread: f64 = 0.0;
    for doc in set {
        let Some(m) = doc
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get(metric))
        else {
            continue;
        };
        values.push(m.get("value")?.as_f64()?);
        own_spread = own_spread.max(m.get("spread").and_then(Json::as_f64).unwrap_or(0.0));
    }
    match values.len() {
        0 => None,
        1 => Some((values[0], own_spread)),
        _ => Some((median(&values), iqr_share(&values))),
    }
}

/// Compare two sets of result documents. Rows follow the first document's
/// workload order and the report order of the metrics; pairs missing on
/// either side are skipped.
pub fn compare(a: &[Json], b: &[Json], bounds: &Bounds) -> Vec<Row> {
    let mut rows = Vec::new();
    let Some(workloads) = a
        .first()
        .and_then(|d| d.get("workloads"))
        .and_then(Json::as_obj)
    else {
        return rows;
    };
    for (workload, _) in workloads {
        for def in &END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) =
                (side(a, workload, def.name), side(b, workload, def.name))
            else {
                continue;
            };
            let Some((better, bound)) = bounds.of(def.name) else {
                continue;
            };
            let (worse_by, verdict) = judge(better, bound, va, vb, sa.max(sb));
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.to_string(),
                a: va,
                b: vb,
                worse_by,
                bound,
                verdict,
            });
        }
    }
    rows
}

/// Print the rows as a table; returns whether any row is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<22} {:>16.6} {:>16.6} {:>8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.bound,
            r.verdict.name()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "\n{} rows: {} same, {} better, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    count(Verdict::Worse) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, 10 % bound.
        assert_eq!(
            judge(Better::Lower, 0.1, 100.0, 105.0, 0.0).1,
            Verdict::Same
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 100.0, 120.0, 0.0).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 100.0, 80.0, 0.0).1,
            Verdict::Better
        );
        // Higher is better: a drop is worse.
        assert_eq!(
            judge(Better::Higher, 0.1, 100.0, 80.0, 0.0).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, 0.1, 100.0, 130.0, 0.0).1,
            Verdict::Better
        );
        // A side noisier than the bound cannot resolve a difference…
        assert_eq!(
            judge(Better::Lower, 0.1, 100.0, 120.0, 0.3).1,
            Verdict::Unresolved
        );
        // …but agreement within the bound is still agreement.
        assert_eq!(
            judge(Better::Lower, 0.1, 100.0, 101.0, 0.3).1,
            Verdict::Same
        );
        // Exact metrics: any drift is a verdict.
        assert_eq!(
            judge(Better::Lower, 1e-12, 0.0, 0.0, 0.0),
            (0.0, Verdict::Same)
        );
        assert_eq!(judge(Better::Lower, 1e-12, 0.0, 0.5, 0.0).1, Verdict::Worse);
        let (by, _) = judge(Better::Higher, 0.1, 200.0, 150.0, 0.0);
        assert!((by - 0.25).abs() < 1e-12);
    }

    #[test]
    fn manifest_bounds_override_the_builtin_table() {
        let manifest = Json::parse(
            r#"{"end_to_end": [{"name": "ingest_segs_per_s", "unit": "segs/s", "better": "higher", "bound": 0.07}]}"#,
        )
        .unwrap();
        let b = Bounds::from_manifest(&manifest);
        assert_eq!(b.of("ingest_segs_per_s"), Some((Better::Higher, 0.07)));
        // Not in the manifest: the built-in entry.
        assert_eq!(b.of("recover_s").map(|x| x.0), Some(Better::Lower));
        assert_eq!(b.of("no_such_metric"), None);
        assert!(Bounds::builtin().of("setup_s").is_some());
    }

    #[test]
    fn documents_compare_row_by_row() {
        let doc = |rate: f64, rec: f64| {
            Json::parse(&format!(
                r#"{{"workloads": {{"durable_recover": {{"metrics": {{
                    "ingest_segs_per_s": {{"value": {rate}, "unit": "segs/s", "spread": 0.02}},
                    "recover_s": {{"value": {rec}, "unit": "s", "spread": 0.0}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let rows = compare(&[doc(1000.0, 1.0)], &[doc(990.0, 2.0)], &Bounds::builtin());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].metric, "ingest_segs_per_s");
        assert_eq!(rows[0].verdict, Verdict::Same);
        assert_eq!(rows[1].metric, "recover_s");
        assert_eq!(rows[1].verdict, Verdict::Worse);
        assert!(compare(&[doc(1.0, 1.0)], &[Json::Null], &Bounds::builtin()).is_empty());
        assert!(compare(&[], &[doc(1.0, 1.0)], &Bounds::builtin()).is_empty());

        // Sets stand for their medians: one slow run in three changes nothing,
        // and a set noisier than the bound cannot resolve a difference.
        let steady = [doc(1000.0, 1.0), doc(1010.0, 1.0), doc(990.0, 1.0)];
        let burst = [doc(1005.0, 1.0), doc(600.0, 3.0), doc(995.0, 1.0)];
        let rows = compare(&steady, &burst, &Bounds::builtin());
        assert_eq!((rows[0].a, rows[0].b), (1000.0, 995.0));
        assert_eq!(rows[0].verdict, Verdict::Same);
        assert_eq!(rows[1].verdict, Verdict::Same);
        let slow = [doc(700.0, 1.0), doc(400.0, 1.0), doc(1000.0, 1.0)];
        assert_eq!(
            compare(&steady, &slow, &Bounds::builtin())[0].verdict,
            Verdict::Unresolved
        );
    }
}
