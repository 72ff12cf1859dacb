//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, around the benchmark's calls into each
//! layer's public functions; the program itself carries no tracing. A
//! disabled tracer runs the wrapped closure and records nothing, so the
//! untraced run executes the same code path without the bookkeeping.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pool.crawl_at`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one benchmark run.
    pub run: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans and named counts.
pub struct Tracer {
    enabled: bool,
    run: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool, run: u64) -> Tracer {
        Tracer {
            enabled,
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Add `value` to the count `name` (recorded at the same boundary
    /// as the surrounding span).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += value;
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A recorded count (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Durations, in microseconds, of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed self time, in milliseconds, of every span named `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        let selves = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selves)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (spans recorded
/// from parallel work) are merged first, so covered time is never
/// subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 7,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_when_they_overlap() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a on 30..40
            span("c", 90, 120, Some(0)), // runs past the parent's end
            span("grandchild", 12, 20, Some(1)),
        ];
        let selves = self_times_ns(&spans);
        // root covered by a∪b = 10..60 (50) and c clipped to 90..100 (10).
        assert_eq!(selves[0], 40);
        assert_eq!(selves[1], 22);
        assert_eq!(selves[2], 30);
        assert_eq!(selves[3], 30);
        assert_eq!(selves[4], 8);
    }

    #[test]
    fn nested_spans_record_parents_and_run_id() {
        let mut t = Tracer::new(true, 42);
        let v = t.span("outer", |t| {
            t.count("items", 2.0);
            t.span("inner", |_| 5)
        });
        assert_eq!(v, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.run == 42));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.counted("items"), 2.0);
        assert!(t.self_ms("outer") <= spans[0].duration_ns() as f64 / 1e6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        assert_eq!(t.span("x", |t| t.span("y", |_| 3)), 3);
        t.count("items", 1.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.counted("items"), 0.0);
    }
}
