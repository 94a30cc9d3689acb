//! # redsim-obs
//!
//! A zero-dependency tracing/metrics substrate for the simulator, built
//! on the operational premise of the paper (§2.2): the warehouse is a
//! *service*, and the service is only operable because every cluster
//! continuously reports structured telemetry — which the customer sees
//! as system tables (`STL_*` / `SVL_*`) queryable with plain SQL. Those
//! tables are the reader; nothing else renders a trace.
//!
//! The pieces:
//!
//! * [`Span`] — an RAII guard with monotonic timing and parent/child
//!   ids. Dropping (or [`Span::finish`]ing) the guard publishes a
//!   [`SpanRecord`] into the owning [`TraceSink`].
//! * [`Counter`] / [`Gauge`] — named atomics in per-sink registries,
//!   `O(1)` after the first lookup and safe to hammer from slice worker
//!   threads.
//! * [`Histogram`] — a log-bucketed latency distribution with bounded
//!   quantile error, for recording per-class statement latencies.
//! * [`TraceSink`] — the per-cluster collector. Spans land first in
//!   fixed-capacity sharded ring buffers (one shard per OS thread,
//!   assigned round-robin) so the hot path takes an uncontended lock;
//!   full rings drain into the bounded completed-record store.
//!   Snapshots are content-sorted, so a deterministic workload
//!   (`RSIM_SEED` replay) reads back the same records in the same order
//!   even when slice workers race on span ids.
//!
//! There is one level: every span the code opens is recorded — the
//! statement, its phases, each slice's scan, each COPY object and slice
//! seal, each connection and retry wait. Which spans exist is decided at
//! the call site. [`Span::disabled`] is for what is deliberately
//! unrecorded: system-table reads, and components built without a sink.

pub mod hist;
pub mod sink;
pub mod span;

pub use hist::Histogram;
pub use sink::{Counter, Gauge, TraceSink};
pub use span::{AttrValue, Span, SpanRecord};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn span_hierarchy_and_attrs_recorded() {
        let sink = Arc::new(TraceSink::new());
        {
            let mut root = sink.span("query");
            root.attr("rows", 3i64);
            {
                let mut child = root.child("compile");
                child.attr("cache_hit", false);
            }
            root.child("exec.slice").attr("slice", 0i64);
        }
        let recs = sink.snapshot();
        assert_eq!(recs.len(), 3);
        let root = recs.iter().find(|r| r.name == "query").unwrap();
        let compile = recs.iter().find(|r| r.name == "compile").unwrap();
        let slice = recs.iter().find(|r| r.name == "exec.slice").unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(compile.parent, root.id);
        assert_eq!(slice.parent, root.id);
        assert_eq!(compile.trace, root.id);
        assert!(compile.dur_ns <= root.dur_ns, "child within parent");
        assert_eq!(root.attr_i64("rows"), Some(3));
        assert_eq!(compile.attr_bool("cache_hit"), Some(false));
        assert_eq!(sink.open_spans(), 0);
    }

    #[test]
    fn disabled_children_of_disabled_spans() {
        let sink = Arc::new(TraceSink::new());
        {
            let off = Span::disabled();
            let _child = off.child("also_gone");
            off.event("gone_too");
            let _recorded = sink.span("kept");
        }
        let recs = sink.snapshot();
        assert_eq!(recs.len(), 1, "only the sink's own span is recorded: {recs:?}");
        assert_eq!(recs[0].name, "kept");
        assert_eq!(sink.open_spans(), 0);
    }

    #[test]
    fn counters_and_gauges() {
        let sink = TraceSink::new();
        let c = sink.counter("plan_cache.hit");
        c.incr();
        c.add(4);
        assert_eq!(sink.counter_value("plan_cache.hit"), 5);
        assert_eq!(sink.counter_value("missing"), 0);
        let g = sink.gauge("mirror.backlog");
        g.set(7);
        g.add(-2);
        assert_eq!(sink.gauge_value("mirror.backlog"), 5);
    }

    #[test]
    fn ring_overflow_drains_not_drops() {
        let sink = Arc::new(TraceSink::new());
        for i in 0..5_000u64 {
            let mut s = sink.span("tick");
            s.attr("i", i as i64);
        }
        assert_eq!(sink.snapshot().len(), 5_000, "overflowing rings spill, not drop");
    }

    #[test]
    fn retention_bounds_completed_records() {
        let sink = Arc::new(TraceSink::new().retain(100));
        for _ in 0..500 {
            sink.span("q");
        }
        let n = sink.snapshot().len();
        assert!(n <= 100, "retention cap enforced, got {n}");
        assert!(sink.records_evicted() >= 400);
        // Truncation is visible as a counter, not just the internal
        // accessor.
        assert_eq!(sink.counter_value("trace.records_dropped"), sink.records_evicted());
    }

    #[test]
    fn snapshot_deterministic_for_same_content() {
        let run = || {
            let sink = Arc::new(TraceSink::new());
            let mut root = sink.span("query");
            root.attr("query", 1i64);
            for slice in 0..4i64 {
                root.child("exec.slice").attr("slice", slice);
            }
            drop(root);
            // Strip the non-deterministic timings before comparing.
            let mut txt = String::new();
            for r in sink.snapshot() {
                txt.push_str(&format!("{} {} {:?}\n", r.name, r.parent != 0, r.attrs));
            }
            txt
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn events_are_instant_children() {
        let sink = Arc::new(TraceSink::new());
        {
            let root = sink.span("copy");
            root.event("copy.encoding_sample");
        }
        let recs = sink.snapshot();
        let ev = recs.iter().find(|r| r.name == "copy.encoding_sample").unwrap();
        assert_eq!(ev.dur_ns, 0);
        assert_ne!(ev.parent, 0);
    }

    #[test]
    fn child_completed_backfills_timing() {
        let sink = Arc::new(TraceSink::new());
        {
            let root = sink.span("query");
            // Let the parent accumulate real elapsed time so the backfilled
            // duration fits inside its extent un-clipped.
            std::thread::sleep(std::time::Duration::from_millis(1));
            root.child_completed("parse", 1234, &[("chars", AttrValue::I64(17))]);
            // A retroactive duration larger than the parent's extent is
            // clipped so children always nest inside their parent.
            root.child_completed("oversized", u64::MAX, &[]);
        }
        let recs = sink.snapshot();
        let p = recs.iter().find(|r| r.name == "parse").unwrap();
        assert_eq!(p.dur_ns, 1234);
        assert_eq!(p.attr_i64("chars"), Some(17));
        let root = recs.iter().find(|r| r.name == "query").unwrap();
        let big = recs.iter().find(|r| r.name == "oversized").unwrap();
        assert!(big.dur_ns <= root.dur_ns, "{} > {}", big.dur_ns, root.dur_ns);
        assert!(big.start_ns >= root.start_ns);
        assert!(p.start_ns >= root.start_ns);
    }
}
