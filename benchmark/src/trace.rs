//! Bench-side span recorder. Spans are recorded around calls *into* the
//! system from the benchmark's own adapter, never inside the program.
//!
//! Phases and any call of at least [`KEEP_WHOLE_NS`] are kept as whole
//! spans (`name, start_ns, end_ns, parent`); shorter calls — millions of
//! mailbox enqueues — are folded into one count/sum/log-bucket histogram
//! per name. Everything stays in memory until [`Tracer::write_jsonl`]. A
//! disabled tracer costs one predictable branch per call and reads no
//! clock, which is how the end-to-end runs keep tracing off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Calls at least this long are kept as individual spans.
pub const KEEP_WHOLE_NS: u64 = 50_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within the tracer (1-based; 0 means "no parent").
    pub id: u64,
    /// The enclosing span open when this one started.
    pub parent: u64,
    /// Layer-qualified call name, e.g. `runtime.open_stream`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// Short calls of one name, folded.
#[derive(Debug, Clone, PartialEq)]
pub struct Folded {
    /// Calls folded.
    pub count: u64,
    /// Their total duration.
    pub sum_ns: u64,
    /// Longest single call.
    pub max_ns: u64,
    /// `buckets[i]` counts calls of `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; 32],
}

impl Folded {
    fn new() -> Self {
        Self {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            buckets: [0; 32],
        }
    }
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    phase: bool,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    folded: BTreeMap<&'static str, Folded>,
}

/// The recorder. Single-threaded by design: the load comes from one driver
/// thread, and only that thread's calls are spanned.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Proof that a span was opened; hand it back to [`Tracer::end`].
#[must_use]
pub struct Token(bool);

impl Tracer {
    /// A tracer that records nothing (end-to-end runs).
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer (traced runs).
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, phase: bool) -> Token {
        if !self.enabled {
            return Token(false);
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.next_id += 1;
        let id = inner.next_id;
        inner.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
            phase,
        });
        Token(true)
    }

    /// Open a span around one call into the system.
    pub fn start(&self, name: &'static str) -> Token {
        self.open(name, false)
    }

    /// Open a phase span (always kept whole, however short).
    pub fn phase(&self, name: &'static str) -> Token {
        self.open(name, true)
    }

    /// Close the innermost open span.
    pub fn end(&self, token: Token) {
        self.end_as(token, None);
    }

    /// Close the innermost open span under another name — for calls whose
    /// kind is only known afterwards (a push that turned out to cross an
    /// epoch barrier).
    pub fn end_as(&self, token: Token, rename: Option<&'static str>) {
        if !token.0 {
            return;
        }
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let Some(open) = inner.stack.pop() else {
            return;
        };
        let name = rename.unwrap_or(open.name);
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = inner.stack.last().map_or(0, |p| p.id);
        if let Some(p) = inner.stack.last_mut() {
            p.child_ns += dur;
        }
        if open.phase || dur >= KEEP_WHOLE_NS {
            inner.spans.push(Span {
                id: open.id,
                parent,
                name,
                start_ns: open.start_ns,
                end_ns,
                self_ns: dur.saturating_sub(open.child_ns),
            });
        } else {
            let f = inner.folded.entry(name).or_insert_with(Folded::new);
            f.count += 1;
            f.sum_ns += dur;
            f.max_ns = f.max_ns.max(dur);
            f.buckets[(63 - dur.max(1).leading_zeros() as usize).min(31)] += 1;
        }
    }

    /// Count, total nanoseconds and every individual duration recorded
    /// under `name`, whole spans and folded calls together. Durations of
    /// folded calls are not individually known, so `durations` lists whole
    /// spans only.
    pub fn summary(&self, name: &str) -> NameSummary {
        let inner = self.inner.borrow();
        let mut s = NameSummary::default();
        for span in inner.spans.iter().filter(|s| s.name == name) {
            let d = span.end_ns - span.start_ns;
            s.count += 1;
            s.sum_ns += d;
            s.durations_ns.push(d);
        }
        if let Some(f) = inner.folded.get(name) {
            s.count += f.count;
            s.sum_ns += f.sum_ns;
            s.short_count = f.count;
            s.short_sum_ns = f.sum_ns;
        }
        s
    }

    /// Every name recorded, with its summary, in name order.
    pub fn names(&self) -> Vec<(&'static str, NameSummary)> {
        let inner = self.inner.borrow();
        let mut names: Vec<&'static str> = inner.spans.iter().map(|s| s.name).collect();
        names.extend(inner.folded.keys().copied());
        names.sort_unstable();
        names.dedup();
        drop(inner);
        names.into_iter().map(|n| (n, self.summary(n))).collect()
    }

    /// Write every whole span and every folded histogram as one JSON object
    /// per line, tagged with `workload`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let inner = self.inner.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &inner.spans {
            let line = Json::obj([
                ("workload", Json::str(workload)),
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(s.self_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        for (name, f) in &inner.folded {
            let line = Json::obj([
                ("workload", Json::str(workload)),
                ("name", Json::str(*name)),
                ("folded", Json::Bool(true)),
                ("count", Json::Num(f.count as f64)),
                ("sum_ns", Json::Num(f.sum_ns as f64)),
                ("max_ns", Json::Num(f.max_ns as f64)),
                (
                    "log2_buckets",
                    Json::Arr(f.buckets.iter().map(|&c| Json::Num(c as f64)).collect()),
                ),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// All calls recorded under one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameSummary {
    /// Calls recorded.
    pub count: u64,
    /// Their total duration.
    pub sum_ns: u64,
    /// Durations of the calls kept as whole spans.
    pub durations_ns: Vec<u64>,
    /// Calls shorter than [`KEEP_WHOLE_NS`] (the folded ones).
    pub short_count: u64,
    /// Their total duration.
    pub short_sum_ns: u64,
}

impl NameSummary {
    /// Mean duration, nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Mean duration of the short calls alone, nanoseconds.
    pub fn short_mean_ns(&self) -> f64 {
        if self.short_count == 0 {
            0.0
        } else {
            self.short_sum_ns as f64 / self.short_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let p = t.phase("phase");
        let c = t.start("call");
        t.end(c);
        t.end(p);
        assert!(t.names().is_empty());
    }

    #[test]
    fn short_calls_fold_and_phases_keep_parentage_and_self_time() {
        let t = Tracer::on();
        let phase = t.phase("w/phase");
        for _ in 0..5 {
            let c = t.start("layer.short");
            t.end(c);
        }
        let long = t.start("layer.long");
        std::thread::sleep(Duration::from_millis(2));
        t.end(long);
        t.end(phase);

        let short = t.summary("layer.short");
        assert_eq!((short.count, short.short_count), (5, 5));
        assert!(short.durations_ns.is_empty(), "short calls are folded");
        assert_eq!(short.short_mean_ns(), short.mean_ns());
        let long = t.summary("layer.long");
        assert_eq!((long.count, long.short_count), (1, 0));

        let inner = t.inner.borrow();
        let phase = inner.spans.iter().find(|s| s.name == "w/phase").unwrap();
        let long = inner.spans.iter().find(|s| s.name == "layer.long").unwrap();
        assert_eq!(phase.parent, 0);
        assert_eq!(long.parent, phase.id);
        let phase_dur = phase.end_ns - phase.start_ns;
        let long_dur = long.end_ns - long.start_ns;
        assert!(long_dur >= 2_000_000);
        // Self time excludes the long child and the folded short ones.
        assert!(phase.self_ns <= phase_dur - long_dur);
    }

    #[test]
    fn rename_on_end_and_jsonl_output() {
        let t = Tracer::on();
        let c = t.start("runtime.push");
        t.end_as(c, Some("runtime.push.dispatch"));
        assert_eq!(t.summary("runtime.push.dispatch").count, 1);
        assert_eq!(t.summary("runtime.push").count, 0);

        let root = crate::tmp::TempRoot::new().unwrap();
        let path = root.file("trace-demo.jsonl");
        t.write_jsonl(&path, "demo").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("workload").and_then(Json::as_str), Some("demo"));
        assert_eq!(
            line.get("name").and_then(Json::as_str),
            Some("runtime.push.dispatch")
        );
    }
}
