//! The trace sink: sharded ring buffers, completed-record store, and
//! the counter/gauge registries.

use crate::span::{AttrValue, Span, SpanInner, SpanRecord};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Ring shards. More than typical worker-thread counts so two slice
/// workers rarely share a shard lock.
const N_SHARDS: usize = 16;

/// Per-shard ring capacity before it spills into the completed store.
const RING_CAP: usize = 256;

/// Default retention for completed records.
const DEFAULT_RETAIN: usize = 65_536;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Round-robin shard assignment, fixed per thread for its lifetime.
    static MY_SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
}

fn my_shard() -> usize {
    MY_SHARD.with(|s| *s)
}

/// A monotonically increasing named counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named signed gauge (set/add semantics).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct Ring {
    buf: Vec<SpanRecord>,
}

/// Collector for one telemetry domain (one per cluster in practice).
///
/// Hot path: a finished span locks only its thread's ring shard. Full
/// rings and explicit [`TraceSink::snapshot`] calls spill into the
/// bounded completed store, evicting the oldest records beyond the
/// retention cap (like the real system tables, which keep a window,
/// not forever).
pub struct TraceSink {
    epoch: Instant,
    next_id: AtomicU64,
    open: AtomicI64,
    evicted: AtomicU64,
    shards: Vec<Mutex<Ring>>,
    done: Mutex<VecDeque<SpanRecord>>,
    retain: usize,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("open", &self.open.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl TraceSink {
    /// An empty sink; every span opened on it is recorded.
    pub fn new() -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            open: AtomicI64::new(0),
            evicted: AtomicU64::new(0),
            shards: (0..N_SHARDS).map(|_| Mutex::new(Ring { buf: Vec::new() })).collect(),
            done: Mutex::new(VecDeque::new()),
            retain: DEFAULT_RETAIN,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
        }
    }

    /// Override the completed-record retention cap (builder style).
    pub fn retain(mut self, cap: usize) -> TraceSink {
        self.retain = cap.max(1);
        self
    }

    /// Open a root span.
    pub fn span(self: &Arc<Self>, name: &'static str) -> Span {
        self.open_span(name, 0, 0)
    }

    pub(crate) fn open_span(self: &Arc<Self>, name: &'static str, parent: u64, trace: u64) -> Span {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let trace = if trace == 0 { id } else { trace };
        self.open.fetch_add(1, Ordering::Relaxed);
        Span {
            inner: Some(SpanInner {
                sink: Arc::clone(self),
                id,
                parent,
                trace,
                name,
                start: Instant::now(),
                start_ns: self.now_ns(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Nanoseconds since this sink's epoch (monotonic).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn close_span(&self, record: SpanRecord) {
        self.open.fetch_sub(1, Ordering::Relaxed);
        self.push(record);
    }

    /// Record a standalone, already-timed **root** span — for intervals
    /// measured where no parent guard exists (e.g. a `retry.wait`
    /// backoff sleep inside the retry loop). The record is backdated by
    /// `dur_ns` from now and gets its own trace id, so trace
    /// well-formedness invariants (roots have `trace == id`, children
    /// nest) are unaffected.
    pub fn span_completed(
        &self,
        name: &'static str,
        dur_ns: u64,
        attrs: &[(&'static str, AttrValue)],
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = self.now_ns();
        let dur_ns = dur_ns.min(now);
        self.push(SpanRecord {
            id,
            parent: 0,
            trace: id,
            name,
            start_ns: now - dur_ns,
            dur_ns,
            attrs: attrs.to_vec(),
        });
    }

    pub(crate) fn push_completed(
        &self,
        name: &'static str,
        parent: u64,
        trace: u64,
        parent_start_ns: u64,
        dur_ns: u64,
        attrs: &[(&'static str, AttrValue)],
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Clip retroactive measurements to the parent's extent: a phase
        // timed before the parent span opened (parsing, say) must still
        // nest inside it for the trace to stay well-formed.
        let now = self.now_ns();
        let dur_ns = dur_ns.min(now.saturating_sub(parent_start_ns));
        self.push(SpanRecord {
            id,
            parent,
            trace,
            name,
            start_ns: now.saturating_sub(dur_ns).max(parent_start_ns),
            dur_ns,
            attrs: attrs.to_vec(),
        });
    }

    fn push(&self, record: SpanRecord) {
        let mut ring = self.shards[my_shard()].lock().unwrap_or_else(|e| e.into_inner());
        // A ring is allocated whole, once per fill: recording a span
        // never grows one.
        if ring.buf.capacity() == 0 {
            ring.buf.reserve_exact(RING_CAP);
        }
        ring.buf.push(record);
        if ring.buf.len() >= RING_CAP {
            let spill = std::mem::replace(&mut ring.buf, Vec::with_capacity(RING_CAP));
            drop(ring);
            self.spill(spill);
        }
    }

    fn spill(&self, records: Vec<SpanRecord>) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        done.extend(records);
        let over = done.len().saturating_sub(self.retain);
        if over > 0 {
            done.drain(..over);
            self.evicted.fetch_add(over as u64, Ordering::Relaxed);
            drop(done);
            // Surface truncation as a counter too: silent record loss
            // makes system tables quietly lie.
            self.counter("trace.records_dropped").add(over as u64);
        }
    }

    fn done_locked(&self) -> MutexGuard<'_, VecDeque<SpanRecord>> {
        // Drain every ring shard first so the completed store is current.
        for shard in &self.shards {
            let mut ring = shard.lock().unwrap_or_else(|e| e.into_inner());
            if !ring.buf.is_empty() {
                let spill = std::mem::take(&mut ring.buf);
                drop(ring);
                self.spill(spill);
            }
        }
        self.done.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// All completed records, content-sorted: `(trace, parent,
    /// content)` with id as the final tiebreak. Sorting by *content*
    /// rather than by racy ids/timestamps makes snapshots of a
    /// deterministic workload stable.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let done = self.done_locked();
        let mut records: Vec<SpanRecord> = done.iter().cloned().collect();
        drop(done);
        records.sort_by(|a, b| {
            (a.trace, a.parent, a.content_key(), a.id)
                .cmp(&(b.trace, b.parent, b.content_key(), b.id))
        });
        records
    }

    /// Completed records with a given span name (system-table builders).
    pub fn records_named(&self, name: &str) -> Vec<SpanRecord> {
        self.snapshot().into_iter().filter(|r| r.name == name).collect()
    }

    /// Remove and return everything recorded so far (unsorted arrival
    /// order). Counters and gauges are untouched.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut done = self.done_locked();
        done.drain(..).collect()
    }

    /// Spans currently open (should be 0 at quiesce — the property
    /// suite asserts this invariant).
    pub fn open_spans(&self) -> i64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Completed records dropped by the retention cap so far.
    pub fn records_evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Get-or-create a named counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(get_or_insert(&self.counters, name))
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        let reg = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        reg.get(name).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Get-or-create a named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(get_or_insert(&self.gauges, name))
    }

    /// Current value of a gauge (0 when never touched).
    pub fn gauge_value(&self, name: &str) -> i64 {
        let reg = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        reg.get(name).map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// The named cell, created on first use: a hit looks the name up and
/// allocates nothing; only a miss builds the `String` key.
fn get_or_insert<T: Default>(reg: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut reg = reg.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(cell) = reg.get(name) {
        return Arc::clone(cell);
    }
    Arc::clone(reg.entry(name.to_string()).or_default())
}
