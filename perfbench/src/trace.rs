//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions. Every recording thread owns a [`SpanLog`]
//! (no locking on the hot path); logs are merged once the workload ends
//! and written out in one go.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers (e.g. `client.step`).
    pub name: &'static str,
    /// Start, in ns since the log's epoch.
    pub start: u64,
    /// End, in ns since the log's epoch.
    pub end: u64,
    /// Index of the span that caused this one, in the same log.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request (0 = none).
    pub request: u64,
}

/// An append-only span log with a shared time origin.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records an interval measured elsewhere against the same epoch.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Appends `other`'s spans, rebasing its parent indices.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span with its self time as tab-separated lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }

    /// Median self time (ns) of the spans named `name`, with their count.
    pub fn median_self(&self, name: &str) -> (f64, usize) {
        let selfs = self_times(&self.spans);
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t as f64)
            .collect();
        let n = v.len();
        (crate::stats::median(&mut v), n)
    }

    /// Sum of self times (ns) of the spans named `name`.
    pub fn total_self(&self, name: &str) -> u64 {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .sum()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once; child
/// time outside the parent's interval does not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end.saturating_sub(s.start);
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end);
                let b = b.clamp(s.start, s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered
        })
        .collect()
}

/// Whether `name` may name a metric: starts with a letter or digit, at
/// most 64 characters, each a letter, digit, `_`, `.` or `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(10, 35, None)]), vec![25]);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(50, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children on two threads overlap in [30, 40).
        let spans = [
            span(0, 100, None),
            span(20, 40, Some(0)),
            span(30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 60);
        // A child nested inside its sibling adds nothing.
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn child_time_outside_the_parent_is_clipped() {
        let spans = [
            span(10, 50, None),
            span(0, 20, Some(0)),
            span(40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn only_direct_children_are_subtracted() {
        // Grandchild time is already inside the child.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        a.push(span(0, 10, None));
        let mut b = SpanLog::new(epoch);
        b.push(span(0, 5, None));
        b.push(span(1, 2, Some(0)));
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }

    #[test]
    fn metric_name_rule() {
        for ok in [
            "step_p50_us",
            "tensor.matvec.blocked_ns",
            "0x",
            "a-b.c_d",
            &"a".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "µs",
            "a/b",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
