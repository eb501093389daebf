//! Spans recorded around calls into the workspace's layers.
//!
//! The traced run wraps each public layer call (spectral basis, snapshot
//! assembly, forward, backward, optimizer, live registry, cache, parser) in
//! a span with a name, start, end, parent and request id. Spans stay in
//! memory and are written out once, when the benchmark ends. Timing lives
//! here, at the benchmark boundary, so no clock enters the numerics.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `graph.spectral`.
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// The request (or training example) the call served.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. A disabled recorder runs the same
/// calls without reading the clock, which is how the untraced half of the
/// overhead measurement replays identical work.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }
}

/// Every span of a run, gathered from the per-thread recorders.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends a recorder's spans, rebasing their parent indices.
    pub fn absorb(&mut self, rec: Recorder) {
        self.merge(Trace { spans: rec.spans });
    }

    /// Appends another trace's spans, rebasing their parent indices.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Total duration (ns) of the spans with no parent: the time the trace
    /// accounts for.
    pub fn root_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time of every span (ns): its duration minus the part of its
    /// interval covered by its children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Total self time (ns) per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(entry) => entry.1 += t,
                None => out.push((s.name, t)),
            }
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = Trace {
            spans: vec![
                span("request", 0, 100, None),
                // Overlapping children (from parallel work) count once.
                span("a", 10, 30, Some(0)),
                span("b", 20, 50, Some(0)),
                // A child running past its parent is clipped to the parent.
                span("c", 90, 120, Some(0)),
                span("leaf", 25, 28, Some(2)),
            ],
        };
        assert_eq!(trace.self_times_ns(), vec![50, 20, 27, 30, 3]);
        assert_eq!(trace.root_total_ns(), 100);
    }

    #[test]
    fn self_time_by_name_sums_repeated_spans() {
        let trace = Trace {
            spans: vec![
                span("request", 0, 10, None),
                span("nn.forward", 2, 6, Some(0)),
                span("request", 20, 30, None),
                span("nn.forward", 21, 29, Some(2)),
            ],
        };
        assert_eq!(
            trace.self_time_by_name(),
            vec![("request", 8), ("nn.forward", 12)]
        );
    }

    #[test]
    fn recorder_nests_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut trace = Trace::default();
        for request in 0..2 {
            let mut rec = Recorder::new(origin, true);
            let v = rec.span("request", request, |rec| rec.span("inner", request, |_| 7));
            assert_eq!(v, 7);
            trace.absorb(rec);
        }
        let parents: Vec<Option<usize>> = trace.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        let s = &trace.spans()[1];
        assert!(s.start_ns >= trace.spans()[0].start_ns && s.end_ns <= trace.spans()[0].end_ns);
    }

    #[test]
    fn disabled_recorder_runs_the_work_and_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        assert_eq!(rec.span("x", 0, |rec| rec.span("y", 0, |_| 3)), 3);
        let mut trace = Trace::default();
        trace.absorb(rec);
        assert!(trace.spans().is_empty());
    }
}
