//! Spans recorded by the benchmark itself, around its calls into the
//! program's public functions. Nothing here touches the program's own
//! `obs` sink: the ledger is timed from outside. Spans stay in memory
//! and are written once, at exit.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one statement share this (0: not tied to a statement).
    pub stmt_id: u64,
}

/// One thread's span buffer. All tracers of a run share `epoch`, so
/// their clocks line up after [`merge`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, stmt_id: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stmt_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close span `id`; returns its duration in ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        end_ns - s.start_ns
    }

    /// Run `f` inside a span; returns its result and the span's ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        stmt_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, stmt_id);
        let out = f();
        (out, self.close(id))
    }
}

/// Concatenate per-thread buffers, re-basing parent indexes.
pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
    let mut all = Vec::new();
    for t in tracers {
        let base = all.len() as u32;
        all.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// A span's self time: its duration minus the part of its interval its
/// children cover. Children may overlap each other (counted once) and
/// may stick out of the parent (clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals: how many spans, their summed duration, their
/// summed self time.
pub fn fold_by_name(spans: &[Span]) -> BTreeMap<&'static str, Folded> {
    let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let f = out.entry(s.name).or_default();
        f.count += 1;
        f.total_ns += s.end_ns - s.start_ns;
        f.self_ns += self_ns;
    }
    out
}

pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        Json::obj(vec![
            ("id", Json::Num(i as f64)),
            ("name", Json::Str(s.name.into())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("stmt_id", Json::Num(s.stmt_id as f64)),
        ])
        .write(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("wire", 10, 90, Some(0)),
            span("exec", 20, 60, Some(1)),
            span("decode", 30, 40, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 30, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("stmt", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 260, Some(0)), // sticks out of the parent by 60
            span("d", 50, 90, Some(0)),   // entirely outside: covers nothing
            span("e", 120, 130, Some(0)), // inside a
        ];
        // Covered: [110,170) ∪ [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn fold_groups_by_name() {
        let spans = vec![
            span("stmt", 0, 50, None),
            span("wire", 0, 30, Some(0)),
            span("stmt", 50, 80, None),
            span("wire", 55, 75, Some(2)),
        ];
        let f = fold_by_name(&spans);
        assert_eq!(
            f["stmt"],
            Folded {
                count: 2,
                total_ns: 80,
                self_ns: 30
            }
        );
        assert_eq!(
            f["wire"],
            Folded {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
    }

    #[test]
    fn merge_rebases_parents_and_jsonl_parses_back() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.open("stmt", None, 7);
        let (_, ns) = a.time("wire", Some(root), 7, || std::hint::black_box(3 + 4));
        a.close(root);
        let mut b = Tracer::new(epoch);
        let r2 = b.open("stmt", None, 8);
        let c2 = b.open("wire", Some(r2), 8);
        b.close(c2);
        b.close(r2);
        let all = merge(vec![a, b]);
        assert_eq!(all.len(), 4);
        assert_eq!(
            all[3].parent,
            Some(2),
            "second tracer's parent index moved by two"
        );
        assert!(all[1].end_ns - all[1].start_ns == ns);
        let text = to_jsonl(&all);
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[3].get("parent").and_then(Json::as_f64), Some(2.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[2].get("stmt_id").and_then(Json::as_f64), Some(8.0));
    }
}
