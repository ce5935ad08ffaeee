//! The repository's benchmark: six V-ETL ingest workloads driven through
//! the system's public API from one process, end-to-end metrics with
//! tracing off, and per-layer metrics from a separate traced run.
//!
//! ```text
//! vetl-benchmark run     [--seed N] [--seconds S]   all workloads, every end-to-end metric
//! vetl-benchmark trace   [--seed N] [--seconds S]   traced workloads + layer ladder, per-layer metrics
//! vetl-benchmark check   [--seed N]                 all workloads at 1/50 size, every correctness check
//! vetl-benchmark compare A.json B.json              judge two result files (or comma-separated sets) against the bounds
//! vetl-benchmark manifest                           print BENCHMARK.json as the code defines it
//! vetl-benchmark --workload W --seed N --seconds S --trace 0|1     one workload, JSON on the last line
//!                                                   (`--result FILE` also writes the result document `compare` reads)
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and how they
//! are expected to interact.

mod compare;
mod cpu;
mod json;
mod layers;
mod procfs;
mod report;
mod stats;
mod sut;
mod tmp;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use report::{EnvStamp, Setup, WorkloadResult, END_TO_END};
use stats::{iqr_share, median};
use sut::{Fixture, Res};
use tmp::TempRoot;
use trace::Tracer;
use workloads::{Env, Sizes};

/// `--seconds` at which the workloads run the issue's default sizes; other
/// values scale the round counts — and only those — proportionally.
const NOMINAL_SECONDS: f64 = 20.0;
/// `--seconds` when none is given: `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: u32 = 10;
/// Set-up is measured this many times per run and reported as the median.
const SETUP_REPS: usize = 9;
/// Size of `check`: 1/50 of the defaults, fleets capped at 32 streams
/// (admission cost does not shrink with rounds).
const CHECK_SIZES: Sizes = Sizes {
    scale: 0.02,
    v_cap: 32,
    max_reps: 1,
};

struct Machine {
    nproc: usize,
    shards: usize,
    conns: usize,
}

fn machine() -> Machine {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Machine {
        nproc,
        shards: nproc.clamp(1, 4),
        conns: nproc.clamp(1, 2),
    }
}

/// Run set-up `reps` times; keep the last fixture, report the median.
fn set_up(seed: u64, reps: usize) -> Res<(Fixture, Setup)> {
    let quiet = Tracer::off();
    let (mut walls, mut fits) = (Vec::new(), Vec::new());
    let mut fixture = None;
    for _ in 0..reps.max(1) {
        drop(fixture.take());
        let t = Instant::now();
        let fx = Fixture::build(seed, &quiet)?;
        walls.push(t.elapsed().as_secs_f64());
        fits.push(fx.fit_s);
        fixture = Some(fx);
    }
    let setup = Setup {
        setup_s: median(&walls),
        spread: iqr_share(&walls),
        reps: walls.len(),
        fit_s: median(&fits),
    };
    Ok((fixture.expect("at least one repetition ran"), setup))
}

fn print_setup(s: &Setup) {
    println!(
        "\n== set-up ==\n  {:<22} {:>16.6} {:<7} median of {} (offline fit {:.3} s + 8 camera days + profile registration)",
        "setup_s", s.setup_s, "s", s.reps, s.fit_s
    );
}

/// The last line of a driver-mode run.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// What an untraced run of some workloads produced.
struct Measured {
    stamp: EnvStamp,
    setup: Setup,
    results: Vec<WorkloadResult>,
}

impl Measured {
    fn correct(&self) -> bool {
        self.results.iter().all(WorkloadResult::correct)
    }
}

/// Set up, then run `names` with tracing off, printing each block.
fn measure(names: &[&str], seed: u64, sizes: Sizes, setup_reps: usize) -> Res<Measured> {
    let mc = machine();
    let mut stamp = EnvStamp::collect(seed, sizes.scale, mc.nproc, mc.shards);
    stamp.print();
    let t0 = Instant::now();
    let (fx, setup) = set_up(seed, setup_reps)?;
    print_setup(&setup);
    let tmp = TempRoot::new().map_err(|e| e.to_string())?;
    let quiet = Tracer::off();
    let env = Env {
        fx: &fx,
        tr: &quiet,
        tmp: &tmp,
        shards: mc.shards,
        conns: mc.conns,
        sizes,
        obs: None,
    };
    let mut results = Vec::new();
    for name in names {
        let r = workloads::run(name, &env);
        r.print();
        results.push(r);
    }
    stamp.total_s = t0.elapsed().as_secs_f64();
    let m = Measured {
        stamp,
        setup,
        results,
    };
    println!(
        "\n{} in {:.1} s",
        if m.correct() {
            "every check passed"
        } else {
            "CHECKS FAILED"
        },
        m.stamp.total_s
    );
    Ok(m)
}

fn cmd_driver(name: &str, args: &Args) -> Res<bool> {
    let (seed, traced) = (args.seed, args.trace);
    if !workloads::names().contains(&name) {
        return Err(format!(
            "unknown workload `{name}` (one of {})",
            workloads::names().join(", ")
        ));
    }
    let scale = args.seconds / NOMINAL_SECONDS;
    if traced {
        let traced = trace_all(seed, scale)?;
        let attempted = traced.workloads.iter().map(|r| r.attempted).sum();
        let failed = traced.workloads.iter().map(|r| r.failed).sum();
        let metrics = layers::PER_LAYER
            .iter()
            .zip(&traced.metrics)
            .map(|(d, (_, v))| (d.name.to_string(), metric_json(*v, d.unit)))
            .collect();
        println!(
            "{}",
            result_line(traced.correct(), attempted, failed, metrics)
        );
        return Ok(traced.correct());
    }
    let m = measure(&[name], seed, Sizes::measured(scale), SETUP_REPS)?;
    if let Some(path) = &args.result {
        let doc = report::result_json(&m.stamp, &m.setup, &m.results);
        report::write_result(std::path::Path::new(path), &doc).map_err(|e| e.to_string())?;
    }
    let r = &m.results[0];
    let mut metrics = Vec::new();
    for def in END_TO_END.iter().filter(|d| d.everywhere) {
        let value = match def.name {
            "setup_s" => Some(m.setup.setup_s),
            other => r.metric(other).map(|m| m.value),
        };
        match value {
            Some(v) => metrics.push((def.name.to_string(), metric_json(v, def.unit))),
            // A workload that failed early has no metrics to report.
            None => return Ok(false),
        }
    }
    println!(
        "{}",
        result_line(r.correct(), r.attempted, r.failed, metrics)
    );
    Ok(r.correct())
}

/// Every workload in a process of its own — the flag form, which is how
/// the driver measures them — and the results merged into one document.
/// One process for all six would hand each workload the heap its
/// predecessors left: after `fleet_steady`'s 330 MB, `short_epoch` admitted
/// its streams 30 % slower and reported anything from 120 to 160 MB of peak
/// resident set instead of 70.
fn cmd_run(seed: u64, seconds: f64) -> Res<bool> {
    let io = |e: std::io::Error| e.to_string();
    let out = tmp::out_dir().map_err(io)?;
    let exe = std::env::current_exe().map_err(io)?;
    let t0 = Instant::now();
    let (mut parts, mut correct) = (Vec::new(), true);
    for name in workloads::names() {
        let part = out.join(format!("run-{seed}-{name}.json"));
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--trace", "0"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--result")
            .arg(&part)
            .status()
            .map_err(io)?;
        correct &= status.success();
        parts.push(read_json(&part.to_string_lossy())?);
        let _ = std::fs::remove_file(&part);
    }
    let doc = report::merge_results(&parts, t0.elapsed().as_secs_f64());
    let path = out.join(format!("run-{seed}.json"));
    report::write_result(&path, &doc).map_err(io)?;
    let history = tmp::package_dir().join("history.jsonl");
    report::append_history(&history, &doc).map_err(io)?;
    println!(
        "\n{} in {:.1} s; result written to {}, one line appended to {}",
        if correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        },
        t0.elapsed().as_secs_f64(),
        path.display(),
        history.display()
    );
    Ok(correct)
}

fn cmd_check(seed: u64) -> Res<bool> {
    measure(&workloads::names(), seed, CHECK_SIZES, 1).map(|m| m.correct())
}

/// The traced run: six workloads at reduced size with spans on, the layer
/// ladder, the single-function probes.
fn trace_all(seed: u64, scale: f64) -> Res<layers::Traced> {
    let mc = machine();
    EnvStamp::collect(seed, scale, mc.nproc, mc.shards).print();
    let (fx, _) = set_up(seed, 1)?;
    let tmp = TempRoot::new().map_err(|e| e.to_string())?;
    let out = tmp::out_dir().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let traced = layers::run(&fx, &tmp, mc.shards, mc.conns, Sizes::measured(scale), &out)?;
    println!("\n== traced workloads (reduced size; times include span overhead) ==");
    for r in &traced.workloads {
        println!(
            "  {:<16} {:>6.1} s  {}",
            r.name,
            r.wall_s,
            if r.correct() { "ok" } else { "FAILED" }
        );
        for c in r.checks.iter().filter(|c| !c.ok) {
            println!("    [FAILED] {} — {}", c.name, c.detail);
        }
        if let Some(e) = &r.error {
            println!("    [FAILED] {e}");
        }
    }
    println!("\n== driver-thread time by call into the system (five largest per workload) ==");
    for (workload, totals) in &traced.span_totals {
        for (name, calls, ns) in totals.iter().take(5) {
            println!(
                "  {workload:<16} {name:<26} {calls:>9} calls {:>10.1} ms",
                *ns as f64 / 1e6
            );
        }
    }
    println!("\n== layer ladder (push phase, seconds) ==");
    for (leg, s) in &traced.legs {
        println!("  {leg:<20} {s:>10.4}");
    }
    for c in &traced.checks {
        println!(
            "  [{}] {} — {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    println!("\n== per-layer metrics ==");
    for (d, (_, v)) in layers::PER_LAYER.iter().zip(&traced.metrics) {
        println!("  {:<34} {:>16.4} {}", d.name, v, d.unit);
    }
    println!(
        "\n{} span files in {} · traced run took {:.1} s",
        traced.span_files.len(),
        out.display(),
        t0.elapsed().as_secs_f64()
    );
    Ok(traced)
}

fn cmd_trace(seed: u64, seconds: f64) -> Res<bool> {
    trace_all(seed, seconds / NOMINAL_SECONDS).map(|t| t.correct())
}

fn read_json(path: &str) -> Res<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `a` and `b` each name one result file, or several separated by commas:
/// a set of runs of the same code, which stands for its median.
fn cmd_compare(a: &str, b: &str) -> Res<bool> {
    let manifest = tmp::package_dir().join("../BENCHMARK.json");
    let bounds = match read_json(&manifest.to_string_lossy()) {
        Ok(m) => compare::Bounds::from_manifest(&m),
        Err(e) => {
            println!("note: {e}; using the built-in bounds");
            compare::Bounds::builtin()
        }
    };
    let set = |paths: &str| paths.split(',').map(read_json).collect::<Res<Vec<Json>>>();
    let (a, b) = (set(a)?, set(b)?);
    println!(
        "A: median of {} run(s) · B: median of {} run(s)",
        a.len(),
        b.len()
    );
    let rows = compare::compare(&a, &b, &bounds);
    if rows.is_empty() {
        return Err("the two sides share no (workload, metric) pair".into());
    }
    Ok(!compare::print(&rows))
}

/// `BENCHMARK.json`, generated from the definitions in this crate so the
/// file and the code cannot drift (a unit test compares them).
fn manifest() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                workloads::names()
                    .iter()
                    .map(|n| {
                        Json::obj([
                            ("name", Json::str(*n)),
                            ("why", Json::str(workloads::why(n))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|d| d.everywhere)
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", Json::str(d.better.name())),
                            ("bound", Json::Num(d.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                layers::PER_LAYER
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", Json::str(d.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where the flag form also writes its result document (`run` reads it).
    result: Option<String>,
}

fn parse_args(raw: &[String]) -> Res<Args> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        result: None,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--result" => args.result = Some(value("--result")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a.clone()),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: vetl-benchmark run|trace|check [--seed N] [--seconds S]
       vetl-benchmark compare A.json[,A2.json,...] B.json[,B2.json,...]
       vetl-benchmark manifest
       vetl-benchmark --workload W --seed N --seconds S --trace 0|1 [--result FILE]";

fn dispatch(raw: &[String]) -> Res<bool> {
    let args = parse_args(raw)?;
    let pos: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match (pos.as_slice(), &args.workload) {
        ([], Some(w)) => cmd_driver(w, &args),
        (["run"], None) => cmd_run(args.seed, args.seconds),
        (["trace"], None) => cmd_trace(args.seed, args.seconds),
        (["check"], None) => cmd_check(args.seed),
        (["compare", a, b], None) => cmd_compare(a, b),
        (["manifest"], None) => {
            println!("{}", manifest().render_pretty());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_flags_parse_in_any_order() {
        let a = parse_args(&strings(&[
            "--seed",
            "42",
            "--workload",
            "wire_camera",
            "--trace",
            "1",
            "--seconds",
            "7",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("wire_camera"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 7.0, true));
        assert!(a.positional.is_empty());
        let a = parse_args(&strings(&["compare", "a.json", "b.json"])).unwrap();
        assert_eq!(a.positional, ["compare", "a.json", "b.json"]);
        assert_eq!(a.seconds, 10.0);
    }

    #[test]
    fn bad_flags_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
        assert!(dispatch(&strings(&["--workload", "nope"])).is_err());
        assert!(dispatch(&strings(&["launch"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 0, 0, vec![("setup_s".into(), metric_json(0.25, "s"))]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }

    /// `BENCHMARK.json` at the repository root is what `manifest` prints,
    /// and stays inside the limits the contract sets.
    #[test]
    fn manifest_matches_the_committed_file_and_the_contract() {
        let m = manifest();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json is committed");
        assert_eq!(Json::parse(&committed).unwrap(), m);
        assert!(committed.len() < 64 * 1024);

        let names = |key: &str| -> Vec<String> {
            m.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let (w, e, l) = (names("workloads"), names("end_to_end"), names("per_layer"));
        assert_eq!(w.len(), 6);
        assert!((1..=16).contains(&e.len()) && e.contains(&"setup_s".to_string()));
        assert!((1..=128).contains(&l.len()));
        let mut all: Vec<&String> = w.iter().chain(&e).chain(&l).collect();
        all.sort();
        all.dedup();
        assert_eq!(
            all.len(),
            w.len() + e.len() + l.len(),
            "names are used once"
        );
        for n in workloads::names() {
            let why = workloads::why(n);
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        let setup_bound = report::metric_def("setup_s").unwrap().bound;
        assert!(END_TO_END.iter().all(|d| d.bound <= setup_bound));
    }
}
