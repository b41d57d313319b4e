//! In-memory spans recorded by the traced run at each public boundary
//! it crosses, and the self-time arithmetic over them.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Spans of one operation share its number.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Holds every span of one pass until the pass ends. With `enabled`
/// false the calls still run but nothing is timed or kept — the untraced
/// twin of pass A that `trace_overhead_pct` is measured against.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    /// The open per-op parent span.
    current: Option<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            current: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the parent span of operation `op_id`.
    pub fn begin_op(&mut self, name: &'static str, op_id: u64) {
        if self.enabled {
            let now = self.now();
            self.current = Some(self.spans.len());
            self.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: None,
                op_id,
            });
        }
    }

    pub fn end_op(&mut self) {
        if let Some(i) = self.current.take() {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Run `f` as a child span of the open operation.
    pub fn child<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        // Only an enabled recorder ever has an open operation.
        let Some(parent) = self.current else {
            return f();
        };
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op_id: self.spans[parent].op_id,
        });
        out
    }
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id", Json::Num(s.op_id as f64)),
                ])
            })
            .collect(),
    )
}

/// A span's self time: its duration minus the part of its interval its
/// child spans cover. Children are clipped to the parent and overlapping
/// children are counted once. A recorder appends a span's descendants
/// right after it, so the search stops at the first span outside the
/// subtree.
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let me = &spans[index];
    let mut kids: Vec<(u64, u64)> = spans[index + 1..]
        .iter()
        .take_while(|s| s.parent.is_some_and(|p| p >= index))
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_interval() {
        let spans = vec![
            span(100, 200, None),
            span(110, 130, Some(0)),
            span(150, 190, Some(0)),
            // A grandchild covers nothing of the root directly.
            span(155, 160, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 40);
        assert_eq!(self_time_ns(&spans, 2), 40 - 5);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        let spans = vec![
            span(100, 200, None),
            span(120, 160, Some(0)),
            span(140, 180, Some(0)),
            span(190, 250, Some(0)),
            span(50, 90, Some(0)),
        ];
        // Covered: 120..180 and 190..200.
        assert_eq!(self_time_ns(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn a_disabled_recorder_runs_the_work_and_keeps_nothing() {
        let mut r = Recorder::new(false);
        r.begin_op("op", 1);
        assert_eq!(r.child("c", || 7), 7);
        r.end_op();
        assert!(r.spans.is_empty());

        let mut r = Recorder::new(true);
        r.begin_op("op", 9);
        r.child("c", || ());
        r.end_op();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].op_id, 9);
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
    }
}
