//! Workload management (WLM): leader-side admission control.
//!
//! §2.1 of the paper describes WLM queues as the mechanism that keeps
//! short interactive queries responsive while heavy ETL runs: the
//! leader routes each query to a *service class* (queue) with a fixed
//! number of concurrency slots, and queries beyond the slot count wait
//! in a bounded queue rather than oversubscribing the compute nodes.
//!
//! This module implements that controller:
//!
//! * [`WlmConfig`] / [`WlmQueueDef`] — named queues with per-queue
//!   slot counts, bounded wait lists, wait timeouts, and routing rules
//!   (user-group match and/or an estimated-cost ceiling).
//! * The short-query accelerator (SQA): one more service class, `sqa`,
//!   after the configured queues. A query whose estimated cost is at
//!   most its threshold takes a free `sqa` slot instead of its routed
//!   queue, so a burst of ETL never starves a dashboard
//!   `SELECT count(*)`; a full `sqa` class is never waited on.
//! * Timeout/eviction: a query that waits longer than its queue's
//!   `max_wait` is evicted with a retryable error instead of hanging.
//! * Graceful drain: [`WlmController::begin_drain`] rejects new work
//!   and wakes all waiters; [`WlmController::wait_idle`] blocks until
//!   in-flight queries finish. `Cluster::resize` and
//!   `Cluster::shutdown` drain before touching topology.
//!
//! Every admission outcome is recorded exactly once as a `wlm` span
//! in the cluster's [`TraceSink`], which is what the
//! `stl_wlm_query` system table materializes; live queue state backs
//! `stv_wlm_service_class_state`.

use redsim_common::{Result, RsError};
use redsim_obs::TraceSink;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The metric a query-monitoring rule watches. Time metrics are
/// nanoseconds (matching every other duration in the simulator);
/// `NestedLoopJoin` is a boolean predicate (value 1 when the plan
/// contains a join with non-equi residual conjuncts — all joins here
/// are hash equi-joins, so a residual is the closest analogue of the
/// real system's nested-loop warning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QmrMetric {
    QueryExecTime,
    QueryQueueTime,
    RowsScanned,
    BytesScanned,
    NestedLoopJoin,
}

impl QmrMetric {
    pub fn as_str(self) -> &'static str {
        match self {
            QmrMetric::QueryExecTime => "query_exec_time",
            QmrMetric::QueryQueueTime => "query_queue_time",
            QmrMetric::RowsScanned => "rows_scanned",
            QmrMetric::BytesScanned => "bytes_scanned",
            QmrMetric::NestedLoopJoin => "nested_loop_join",
        }
    }

    /// When this metric becomes known: queue time at admission,
    /// everything else at the slice-merge point after execution.
    fn phase(self) -> QmrPhase {
        match self {
            QmrMetric::QueryQueueTime => QmrPhase::Admission,
            _ => QmrPhase::Merge,
        }
    }

    fn value(self, stats: &QmrStats) -> u64 {
        match self {
            QmrMetric::QueryExecTime => stats.exec_ns,
            QmrMetric::QueryQueueTime => stats.queue_ns,
            QmrMetric::RowsScanned => stats.rows_scanned,
            QmrMetric::BytesScanned => stats.bytes_scanned,
            QmrMetric::NestedLoopJoin => u64::from(stats.nested_loop_join),
        }
    }
}

/// What a fired rule does. Ordered weakest-to-strongest: when several
/// rules fire at once every firing is logged, but only the strongest
/// action is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QmrAction {
    /// Record the firing in `stl_wlm_rule_action`, nothing else.
    Log,
    /// Move the query to the next wider queue (reuses hop machinery).
    Hop,
    /// Terminate the query with an error (leader-side only).
    Abort,
}

impl QmrAction {
    pub fn as_str(self) -> &'static str {
        match self {
            QmrAction::Log => "log",
            QmrAction::Hop => "hop",
            QmrAction::Abort => "abort",
        }
    }
}

/// One query-monitoring rule: fire when `metric > threshold`.
#[derive(Debug, Clone)]
pub struct QmrRule {
    pub name: String,
    pub metric: QmrMetric,
    pub threshold: u64,
    pub action: QmrAction,
}

/// Live query metrics handed to rule evaluation.
#[derive(Debug, Default, Clone)]
pub struct QmrStats {
    pub exec_ns: u64,
    pub queue_ns: u64,
    pub rows_scanned: u64,
    pub bytes_scanned: u64,
    pub nested_loop_join: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QmrPhase {
    Admission,
    Merge,
}

/// One named service class (queue).
#[derive(Debug, Clone)]
pub struct WlmQueueDef {
    /// Service-class name (shows up in system tables).
    pub name: String,
    /// Concurrency slots: queries running at once in this class.
    pub slots: u32,
    /// Bounded wait list: admissions beyond this are rejected.
    pub max_queue_len: usize,
    /// Maximum time a query may wait for a slot before eviction.
    pub max_wait: Duration,
    /// Route queries whose session user-group matches one of these.
    /// Empty means "no user-group rule".
    pub user_groups: Vec<String>,
    /// Route queries whose estimated cost is at most this. `None`
    /// means the queue accepts any cost (catch-all).
    pub max_cost: Option<u64>,
    /// Query-monitoring rules for queries running in this class.
    pub rules: Vec<QmrRule>,
}

impl WlmQueueDef {
    /// A queue with the given name and slot count, generous bounds,
    /// and no routing rules (catch-all).
    pub fn new(name: impl Into<String>, slots: u32) -> WlmQueueDef {
        WlmQueueDef {
            name: name.into(),
            slots: slots.max(1),
            max_queue_len: 1024,
            max_wait: Duration::from_secs(30),
            user_groups: Vec::new(),
            max_cost: None,
            rules: Vec::new(),
        }
    }

    /// Builder: bound the wait list.
    pub fn max_queue_len(mut self, n: usize) -> WlmQueueDef {
        self.max_queue_len = n;
        self
    }

    /// Builder: bound the wait time.
    pub fn max_wait(mut self, d: Duration) -> WlmQueueDef {
        self.max_wait = d;
        self
    }

    /// Builder: route sessions in `group` here.
    pub fn user_group(mut self, group: impl Into<String>) -> WlmQueueDef {
        self.user_groups.push(group.into());
        self
    }

    /// Builder: route queries with estimated cost ≤ `cost` here.
    pub fn max_cost(mut self, cost: u64) -> WlmQueueDef {
        self.max_cost = Some(cost);
        self
    }

    /// Builder: add a monitoring rule (`metric > threshold` → `action`).
    pub fn rule(
        mut self,
        name: impl Into<String>,
        metric: QmrMetric,
        threshold: u64,
        action: QmrAction,
    ) -> WlmQueueDef {
        self.rules.push(QmrRule { name: name.into(), metric, threshold, action });
        self
    }
}

/// The WLM configuration: an ordered list of queues plus the SQA class.
///
/// Routing precedence for a query with user group `g` and estimated
/// cost `c`:
///
/// 1. if SQA is enabled, `c <= sqa_max_cost` and an SQA slot is free,
///    the `sqa` class, whatever `g` is (never waits — falls through
///    when full);
/// 2. otherwise the first queue whose `user_groups` contains `g`;
/// 3. otherwise the first queue with `max_cost >= c` (or no
///    `max_cost`); the last queue is the catch-all fallback.
#[derive(Debug, Clone)]
pub struct WlmConfig {
    /// Ordered service classes. Must be non-empty (the default config
    /// has one permissive queue).
    pub queues: Vec<WlmQueueDef>,
    /// SQA cost threshold; `0` disables the accelerator.
    pub sqa_max_cost: u64,
    /// Slots in the SQA class (only meaningful when enabled).
    pub sqa_slots: u32,
}

impl Default for WlmConfig {
    /// One permissive queue, SQA off: existing single-tenant tests
    /// keep their semantics (nothing ever queues or is rejected under
    /// the suite's concurrency levels).
    fn default() -> WlmConfig {
        WlmConfig {
            queues: vec![WlmQueueDef::new("default", 50)],
            sqa_max_cost: 0,
            sqa_slots: 0,
        }
    }
}

impl WlmConfig {
    /// Config from an explicit queue list (panics if empty).
    pub fn with_queues(queues: Vec<WlmQueueDef>) -> WlmConfig {
        assert!(!queues.is_empty(), "WLM needs at least one queue");
        WlmConfig { queues, sqa_max_cost: 0, sqa_slots: 0 }
    }

    /// Builder: enable the short-query accelerator.
    pub fn sqa(mut self, max_cost: u64, slots: u32) -> WlmConfig {
        self.sqa_max_cost = max_cost;
        self.sqa_slots = slots.max(1);
        self
    }

    /// The controller's service classes: the configured queues (a
    /// default one when there are none), then, when SQA is enabled, a
    /// class named `sqa` with no rules and no wait list.
    fn classes(&self) -> Vec<WlmQueueDef> {
        let mut classes = self.queues.clone();
        if classes.is_empty() {
            classes.push(WlmQueueDef::new("default", 50));
        }
        if self.sqa_max_cost > 0 {
            let sqa = WlmQueueDef::new("sqa", 1).max_cost(self.sqa_max_cost).max_queue_len(0);
            classes.push(WlmQueueDef { slots: self.sqa_slots, ..sqa });
        }
        classes
    }
}

/// Final state of an admission, mirrored into `stl_wlm_query.state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Completed,
    Evicted,
    Rejected,
    /// Terminated by a monitoring rule with action `abort`.
    Aborted,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Completed => "Completed",
            Outcome::Evicted => "Evicted",
            Outcome::Rejected => "Rejected",
            Outcome::Aborted => "Aborted",
        }
    }
}

#[derive(Debug, Default, Clone)]
struct QueueState {
    in_flight: u32,
    /// Waiting queries by id, longest waiter first: a freed slot goes to
    /// the head, and a newcomer takes a free slot only when nobody waits.
    waiting: VecDeque<u64>,
    executed: u64,
    evicted: u64,
    rejected: u64,
    /// Timed-out waiters that restarted in a wider queue instead of
    /// being evicted (counted against the queue they left).
    hopped_out: u64,
    /// Queries terminated by an `abort` monitoring rule.
    aborted: u64,
    queue_wait_ns_total: u64,
}

impl QueueState {
    /// Take `qid` off the wait list: admitted, hopped or evicted.
    fn leave(&mut self, qid: u64) {
        self.waiting.retain(|&w| w != qid);
    }
}

#[derive(Debug)]
struct Inner {
    /// One state per service class, in `WlmController::classes` order.
    queues: Vec<QueueState>,
    draining: bool,
    /// Bumped on every `begin_drain` so waiters can tell a drain
    /// wake-up from a slot-free wake-up.
    drain_epoch: u64,
}

/// A point-in-time view of one service class, for
/// `stv_wlm_service_class_state`.
#[derive(Debug, Clone)]
pub struct ServiceClassState {
    pub name: String,
    pub slots: u32,
    pub in_flight: u32,
    pub queued: u32,
    pub executed: u64,
    pub evicted: u64,
    pub rejected: u64,
    /// Timed-out waiters that hopped out to a wider queue.
    pub hopped: u64,
    /// Queries terminated by an `abort` monitoring rule.
    pub aborted: u64,
    /// Mean queue wait over completed queries, microseconds.
    pub avg_queue_wait_us: u64,
}

/// The leader-side admission controller. One per cluster; shared with
/// query threads via `Arc`.
pub struct WlmController {
    /// Every service class: the configured queues, then `sqa` if enabled.
    /// A query's lane is an index into this list.
    classes: Vec<WlmQueueDef>,
    /// How many of `classes` are configured queues; routing and hops
    /// only ever pick one of these.
    configured: usize,
    inner: Mutex<Inner>,
    cv: Condvar,
    seq: AtomicU64,
    trace: Arc<TraceSink>,
}

impl std::fmt::Debug for WlmController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("WlmController")
            .field("queues", &self.configured)
            .field("draining", &inner.draining)
            .finish_non_exhaustive()
    }
}

impl WlmController {
    /// Build a controller for `cfg`, recording into `trace`.
    pub fn new(cfg: &WlmConfig, trace: Arc<TraceSink>) -> WlmController {
        let classes = cfg.classes();
        let configured = cfg.queues.len().max(1);
        WlmController {
            inner: Mutex::new(Inner {
                queues: vec![QueueState::default(); classes.len()],
                draining: false,
                drain_epoch: 0,
            }),
            classes,
            configured,
            cv: Condvar::new(),
            seq: AtomicU64::new(1),
            trace,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The `sqa` class's index, when SQA is enabled.
    fn sqa(&self) -> Option<usize> {
        (self.classes.len() > self.configured).then_some(self.configured)
    }

    /// Route a query to a queue index, per the precedence documented
    /// on [`WlmConfig`]. (SQA is decided separately, under the lock.)
    fn route(&self, cost: u64, user_group: Option<&str>) -> usize {
        let queues = &self.classes[..self.configured];
        if let Some(g) = user_group {
            if let Some(i) = queues.iter().position(|q| q.user_groups.iter().any(|ug| ug == g)) {
                return i;
            }
        }
        // Cost routing only considers queues without a user-group gate:
        // a user-group queue is reachable solely by its groups.
        queues
            .iter()
            .position(|q| q.user_groups.is_empty() && q.max_cost.is_none_or(|mc| cost <= mc))
            .unwrap_or(self.configured - 1)
    }

    /// The queues after `qi` a hop may move a query to: those without a
    /// user-group gate (only enterable via their groups), in order.
    fn wider(&self, qi: usize) -> impl Iterator<Item = usize> + '_ {
        (qi + 1..self.configured).filter(|&j| self.classes[j].user_groups.is_empty())
    }

    /// Admit a query: returns an RAII guard once a slot is held, or an
    /// error when the query was rejected (queue full / draining) or
    /// evicted (waited past the queue's `max_wait`).
    ///
    /// The returned guard must be held for the duration of execution;
    /// dropping it releases the slot and records the `wlm` span.
    pub fn admit(
        self: &Arc<Self>,
        cost: u64,
        user_group: Option<&str>,
    ) -> Result<WlmGuard> {
        let qid = self.seq.fetch_add(1, Ordering::Relaxed);
        let qi = self.route(cost, user_group);
        let q = &self.classes[qi];
        let t0 = Instant::now();

        let mut inner = self.lock();
        if inner.draining {
            self.record_failure(&mut inner, qi, qid, Outcome::Rejected, 0, 0);
            drop(inner);
            return Err(RsError::InvalidState(
                "wlm: cluster is draining, not accepting queries".into(),
            ));
        }

        // Free slot and nobody ahead: admit with zero wait. A short query
        // tries an `sqa` slot first, whatever its route; SQA never waits —
        // a full `sqa` class falls through to the routed queue.
        let sqa = self.sqa().filter(|&s| self.classes[s].max_cost.is_some_and(|mc| cost <= mc));
        for lane in sqa.into_iter().chain([qi]) {
            let st = &mut inner.queues[lane];
            if st.in_flight < self.classes[lane].slots && st.waiting.is_empty() {
                st.in_flight += 1;
                drop(inner);
                return self.grant(lane, qid, 0, 0);
            }
        }

        // Bounded wait list.
        if inner.queues[qi].waiting.len() >= q.max_queue_len {
            self.record_failure(&mut inner, qi, qid, Outcome::Rejected, 0, 0);
            drop(inner);
            return Err(RsError::InvalidState(format!(
                "wlm: queue '{}' full ({} waiters); queue full",
                q.name, q.max_queue_len
            )));
        }

        // Wait for a slot, hopping to the next wider queue on timeout
        // (the real system's "query hopping": a timed-out query is
        // restarted in the next matching queue rather than cancelled).
        // Only falling off the *last* eligible queue evicts.
        let mut qi = qi;
        let mut hops = 0u64;
        inner.queues[qi].waiting.push_back(qid);
        let my_epoch = inner.drain_epoch;
        let mut deadline = t0 + q.max_wait;
        loop {
            let now = Instant::now();
            let wait_ns = now.duration_since(t0).as_nanos() as u64;
            if inner.draining || inner.drain_epoch != my_epoch {
                inner.queues[qi].leave(qid);
                self.record_failure(&mut inner, qi, qid, Outcome::Evicted, wait_ns, hops);
                drop(inner);
                return Err(RsError::InvalidState(
                    "wlm: evicted from queue by drain".into(),
                ));
            }
            let head = inner.queues[qi].waiting.front() == Some(&qid);
            if head && inner.queues[qi].in_flight < self.classes[qi].slots {
                inner.queues[qi].leave(qid);
                inner.queues[qi].in_flight += 1;
                drop(inner);
                // The next waiter is the head now, and may find a slot.
                self.cv.notify_all();
                self.trace.counter("wlm.queued_admits").incr();
                return self.grant(qi, qid, wait_ns, hops);
            }
            if now >= deadline {
                // Leaving may put another waiter at the head.
                inner.queues[qi].leave(qid);
                self.cv.notify_all();
                let room =
                    |j: &usize| inner.queues[*j].waiting.len() < self.classes[*j].max_queue_len;
                if let Some(next) = self.wider(qi).find(room) {
                    inner.queues[next].waiting.push_back(qid);
                    inner.queues[qi].hopped_out += 1;
                    qi = next;
                    hops += 1;
                    // A fresh wait budget in the new queue; total wait
                    // is still reported from t0 (queue_wait_us spans
                    // every queue the query sat in).
                    deadline = now + self.classes[qi].max_wait;
                    self.trace.counter("wlm.hops").incr();
                    continue;
                }
                self.record_failure(&mut inner, qi, qid, Outcome::Evicted, wait_ns, hops);
                drop(inner);
                return Err(RsError::InvalidState(format!(
                    "wlm: queue wait timeout in '{}' after {:?} ({} hops)",
                    self.classes[qi].name, self.classes[qi].max_wait, hops
                )));
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(inner, deadline.saturating_duration_since(now))
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Hand out the slot of `lane` the caller just took, then run the
    /// class's admission-point rules: queue time is known the moment
    /// the slot is granted.
    fn grant(self: &Arc<Self>, lane: usize, qid: u64, wait_ns: u64, hops: u64) -> Result<WlmGuard> {
        if self.sqa() == Some(lane) {
            self.trace.counter("wlm.sqa_admits").incr();
        }
        self.trace.counter("wlm.admitted").incr();
        let mut guard = WlmGuard {
            ctl: Arc::clone(self),
            lane,
            qid,
            wait_ns,
            hops,
            admitted_at: Instant::now(),
            done: false,
        };
        guard.eval_rules(
            QmrPhase::Admission,
            &QmrStats { queue_ns: wait_ns, ..QmrStats::default() },
        )?;
        Ok(guard)
    }

    /// Record a rejection/eviction span and bump counters. Must be
    /// called with the lock held (takes it to prove that).
    fn record_failure(
        &self,
        inner: &mut Inner,
        qi: usize,
        qid: u64,
        outcome: Outcome,
        wait_ns: u64,
        hops: u64,
    ) {
        match outcome {
            Outcome::Evicted => {
                inner.queues[qi].evicted += 1;
                self.trace.counter("wlm.evicted").incr();
            }
            Outcome::Rejected => {
                inner.queues[qi].rejected += 1;
                self.trace.counter("wlm.rejected").incr();
            }
            Outcome::Completed | Outcome::Aborted => unreachable!("failures only"),
        }
        self.emit_span(qid, qi, outcome, wait_ns, 0, hops);
    }

    /// Emit the per-query `wlm` record (`stl_wlm_query` reads it).
    fn emit_span(
        &self,
        qid: u64,
        lane: usize,
        outcome: Outcome,
        wait_ns: u64,
        exec_ns: u64,
        hops: u64,
    ) {
        let mut span = self.trace.span("wlm");
        span.attr("query", qid as i64);
        span.attr("service_class", self.classes[lane].name.clone());
        span.attr("state", outcome.as_str());
        span.attr("queue_wait_us", (wait_ns / 1_000) as i64);
        span.attr("exec_us", (exec_ns / 1_000) as i64);
        span.attr("sqa", self.sqa() == Some(lane));
        span.attr("hops", hops as i64);
    }

    /// Stop admitting queries and evict everything on the wait lists.
    /// In-flight queries keep their slots; pair with [`wait_idle`].
    ///
    /// [`wait_idle`]: WlmController::wait_idle
    pub fn begin_drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        inner.drain_epoch += 1;
        drop(inner);
        self.cv.notify_all();
        self.trace.counter("wlm.drains").incr();
    }

    /// Block until no query holds a slot, or `timeout` elapses.
    /// Returns `true` when fully idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if inner.queues.iter().all(|q| q.in_flight == 0) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _t) = self
                .cv
                .wait_timeout(inner, deadline.saturating_duration_since(now))
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Accept queries again after a drain (resize rollback path).
    pub fn reopen(&self) {
        let mut inner = self.lock();
        inner.draining = false;
        drop(inner);
        self.cv.notify_all();
    }

    /// Whether the controller is currently draining.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Point-in-time state of every service class (the `sqa` class
    /// last, when enabled) for `stv_wlm_service_class_state`.
    pub fn service_class_states(&self) -> Vec<ServiceClassState> {
        let inner = self.lock();
        self.classes
            .iter()
            .zip(inner.queues.iter())
            .map(|(def, st)| ServiceClassState {
                name: def.name.clone(),
                slots: def.slots,
                in_flight: st.in_flight,
                queued: st.waiting.len() as u32,
                executed: st.executed,
                evicted: st.evicted,
                rejected: st.rejected,
                hopped: st.hopped_out,
                aborted: st.aborted,
                avg_queue_wait_us: if st.executed == 0 {
                    0
                } else {
                    st.queue_wait_ns_total / st.executed / 1_000
                },
            })
            .collect()
    }

    /// Move a *running* query to the next wider queue because a
    /// monitoring rule said so. Unlike a timed-out waiter hop, the
    /// query keeps running — the target's `in_flight` may transiently
    /// exceed its slot count, the price of not restarting work that is
    /// already done. Returns the new queue index, or `None` when no
    /// wider queue is left (the hop degrades to a log-only firing).
    fn rule_hop(&self, qi: usize) -> Option<usize> {
        let next = self.wider(qi).next()?;
        let mut inner = self.lock();
        inner.queues[qi].in_flight -= 1;
        inner.queues[qi].hopped_out += 1;
        inner.queues[next].in_flight += 1;
        drop(inner);
        // The vacated slot may admit a waiter.
        self.cv.notify_all();
        self.trace.counter("wlm.hops").incr();
        Some(next)
    }
}

/// RAII slot guard: holds one concurrency slot from admission until
/// drop, then releases it, wakes waiters, and records the `wlm` span.
pub struct WlmGuard {
    ctl: Arc<WlmController>,
    /// The service class holding the slot (an index into `classes`).
    lane: usize,
    qid: u64,
    wait_ns: u64,
    hops: u64,
    admitted_at: Instant,
    done: bool,
}

impl WlmGuard {
    /// Time spent waiting for a slot, nanoseconds.
    pub fn queue_wait_ns(&self) -> u64 {
        self.wait_ns
    }

    /// How many times this query hopped to a wider queue before a
    /// slot opened (`0` = admitted in its routed queue).
    pub fn hops(&self) -> u64 {
        self.hops
    }

    /// Whether this admission went through the SQA class.
    pub fn via_sqa(&self) -> bool {
        self.ctl.sqa() == Some(self.lane)
    }

    /// The service-class name this query runs under.
    pub fn service_class(&self) -> &str {
        &self.ctl.classes[self.lane].name
    }

    /// Evaluate this queue's monitoring rules against live execution
    /// metrics — the slice-merge evaluation point. Every firing is
    /// recorded as a `wlm_rule_action` span (→ `stl_wlm_rule_action`);
    /// when several rules fire, the strongest action wins. Returns
    /// `Err` when an `abort` rule fired (the slot is already released,
    /// with state `Aborted` in `stl_wlm_query`).
    pub fn evaluate_rules(&mut self, stats: &QmrStats) -> Result<()> {
        self.eval_rules(QmrPhase::Merge, stats)
    }

    fn eval_rules(&mut self, phase: QmrPhase, stats: &QmrStats) -> Result<()> {
        let class = &self.ctl.classes[self.lane];
        let fired: Vec<QmrRule> = class
            .rules
            .iter()
            .filter(|r| r.metric.phase() == phase && r.metric.value(stats) > r.threshold)
            .cloned()
            .collect();
        if fired.is_empty() {
            return Ok(());
        }
        for r in &fired {
            let mut span = self.ctl.trace.span("wlm_rule_action");
            span.attr("query", self.qid as i64);
            span.attr("service_class", class.name.clone());
            span.attr("rule", r.name.clone());
            span.attr("metric", r.metric.as_str());
            span.attr("value", r.metric.value(stats) as i64);
            span.attr("threshold", r.threshold as i64);
            span.attr("action", r.action.as_str());
            self.ctl.trace.counter("wlm.rule_actions").incr();
        }
        let strongest = fired.iter().max_by_key(|r| r.action).unwrap().clone();
        match strongest.action {
            QmrAction::Log => Ok(()),
            QmrAction::Hop => {
                if let Some(next) = self.ctl.rule_hop(self.lane) {
                    self.lane = next;
                    self.hops += 1;
                }
                Ok(())
            }
            QmrAction::Abort => {
                // Leader-side termination: release the slot now with an
                // Aborted record; Drop finds it released and stays quiet.
                self.release(Outcome::Aborted);
                Err(RsError::InvalidState(format!(
                    "wlm: query aborted by monitoring rule '{}' ({} {} > {})",
                    strongest.name,
                    strongest.metric.as_str(),
                    strongest.metric.value(stats),
                    strongest.threshold
                )))
            }
        }
    }

    /// Give the slot back, wake waiters and record how the query ended;
    /// only the first call does anything.
    fn release(&mut self, outcome: Outcome) {
        if std::mem::replace(&mut self.done, true) {
            return;
        }
        let exec_ns = self.admitted_at.elapsed().as_nanos() as u64;
        let ctl = &self.ctl;
        let mut inner = ctl.lock();
        let st = &mut inner.queues[self.lane];
        st.in_flight -= 1;
        match outcome {
            Outcome::Aborted => st.aborted += 1,
            _ => {
                st.executed += 1;
                st.queue_wait_ns_total += self.wait_ns;
            }
        }
        drop(inner);
        ctl.cv.notify_all();
        match outcome {
            Outcome::Aborted => ctl.trace.counter("wlm.aborted").incr(),
            _ => ctl.trace.counter("wlm.completed").incr(),
        }
        ctl.emit_span(self.qid, self.lane, outcome, self.wait_ns, exec_ns, self.hops);
    }
}

impl Drop for WlmGuard {
    fn drop(&mut self) {
        self.release(Outcome::Completed);
    }
}

impl std::fmt::Debug for WlmGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WlmGuard")
            .field("qid", &self.qid)
            .field("service_class", &self.service_class())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ctl(cfg: WlmConfig) -> Arc<WlmController> {
        Arc::new(WlmController::new(&cfg, Arc::new(TraceSink::new())))
    }

    #[test]
    fn default_config_admits_without_waiting() {
        let c = ctl(WlmConfig::default());
        let g = c.admit(1_000_000, None).unwrap();
        assert_eq!(g.queue_wait_ns(), 0);
        assert_eq!(g.service_class(), "default");
        drop(g);
        let st = &c.service_class_states()[0];
        assert_eq!(st.executed, 1);
        assert_eq!(st.in_flight, 0);
    }

    #[test]
    fn slots_cap_in_flight_and_waiters_get_slots_in_turn() {
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("tiny", 1).max_wait(Duration::from_secs(5))
        ]);
        let c = ctl(cfg);
        let g1 = c.admit(10, None).unwrap();
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || c2.admit(10, None));
        // Give the waiter time to join the queue, then free the slot.
        while c.service_class_states()[0].queued == 0 {
            std::thread::yield_now();
        }
        drop(g1);
        let g2 = waiter.join().unwrap().unwrap();
        assert!(g2.queue_wait_ns() > 0, "second admit had to wait");
        drop(g2);
        assert_eq!(c.service_class_states()[0].executed, 2);
    }

    #[test]
    fn a_freed_slot_goes_to_the_longest_waiter() {
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("one", 1).max_wait(Duration::from_millis(100))
        ]);
        let c = ctl(cfg);
        // Each round: a waiter queues behind the holder, then the slot
        // frees as a newcomer arrives. The waiter keeps the slot until it
        // is joined, so a newcomer that queues behind it times out.
        let passed = (0..10)
            .filter(|_| {
                let holder = c.admit(10, None).unwrap();
                let c2 = Arc::clone(&c);
                let waiter = std::thread::spawn(move || c2.admit(10, None));
                while c.service_class_states()[0].queued == 0 {
                    std::thread::yield_now();
                }
                drop(holder);
                let newcomer = c.admit(10, None);
                let _waiter = waiter.join().unwrap();
                newcomer.is_ok()
            })
            .count();
        assert_eq!(passed, 0, "a newcomer passed the waiter in {passed} of 10 rounds");
        assert!(crate::WlmAccounting::of(&c.trace).balanced());
    }

    #[test]
    fn wait_timeout_evicts() {
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("strict", 1).max_wait(Duration::from_millis(20))
        ]);
        let c = ctl(cfg);
        let g = c.admit(10, None).unwrap();
        let err = c.admit(10, None).unwrap_err();
        assert!(err.to_string().contains("timeout"), "{err}");
        assert_eq!(c.service_class_states()[0].evicted, 1);
        // An evicted waiter was never admitted: the books still balance.
        drop(g);
        let books = crate::WlmAccounting::of(&c.trace);
        assert_eq!((books.admitted, books.completed, books.evicted), (1, 1, 1));
        assert!(books.balanced(), "{books:?}");
    }

    #[test]
    fn wait_timeout_hops_to_wider_queue_instead_of_evicting() {
        // Queue 0 is saturated with a tiny max_wait; queue 1 has a free
        // slot. The timed-out waiter must restart there, not error.
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("narrow", 1).max_cost(100).max_wait(Duration::from_millis(10)),
            WlmQueueDef::new("wide", 2).max_wait(Duration::from_secs(5)),
        ]);
        let c = ctl(cfg);
        let _hog = c.admit(10, None).unwrap(); // saturates "narrow"
        let hopped = c.admit(10, None).unwrap();
        assert_eq!(hopped.service_class(), "wide");
        assert_eq!(hopped.hops(), 1);
        assert!(hopped.queue_wait_ns() > 0, "hop time counts as queue wait");
        let states = c.service_class_states();
        assert_eq!(states[0].hopped, 1, "counted against the queue it left");
        assert_eq!(states[0].evicted, 0, "hop is not an eviction");
    }

    #[test]
    fn hop_skips_user_group_queues_and_falling_off_last_queue_evicts() {
        // Queue 1 is gated on a user group: a cost-routed waiter may
        // never hop into it. With queue 2 also saturated, the query
        // hops narrow→wide, times out again, and only then evicts.
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("narrow", 1).max_cost(100).max_wait(Duration::from_millis(10)),
            WlmQueueDef::new("etl", 4).user_group("etl_users"),
            WlmQueueDef::new("wide", 1).max_wait(Duration::from_millis(10)),
        ]);
        let c = ctl(cfg);
        let _hog0 = c.admit(10, None).unwrap(); // saturates "narrow"
        let _hog2 = c.admit(10_000, None).unwrap(); // saturates "wide"
        let err = c.admit(10, None).unwrap_err();
        assert!(err.to_string().contains("timeout in 'wide'"), "{err}");
        assert!(err.to_string().contains("1 hops"), "{err}");
        let states = c.service_class_states();
        assert_eq!(states[0].hopped, 1);
        assert_eq!(states[1].evicted, 0, "user-group queue untouched");
        assert_eq!(states[2].evicted, 1, "evicted from the last queue");
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let cfg = WlmConfig::with_queues(vec![WlmQueueDef::new("b", 1)
            .max_queue_len(0)
            .max_wait(Duration::from_secs(1))]);
        let c = ctl(cfg);
        let _g = c.admit(10, None).unwrap();
        let err = c.admit(10, None).unwrap_err();
        assert!(err.to_string().contains("queue full"), "{err}");
        assert_eq!(c.service_class_states()[0].rejected, 1);
    }

    #[test]
    fn routing_by_user_group_and_cost() {
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("etl", 2).user_group("etl_users"),
            WlmQueueDef::new("short", 2).max_cost(100),
            WlmQueueDef::new("long", 2),
        ]);
        let c = ctl(cfg);
        let g = c.admit(1_000_000, Some("etl_users")).unwrap();
        assert_eq!(g.service_class(), "etl");
        let g2 = c.admit(50, None).unwrap();
        assert_eq!(g2.service_class(), "short");
        let g3 = c.admit(10_000, None).unwrap();
        assert_eq!(g3.service_class(), "long");
    }

    #[test]
    fn sqa_bypasses_saturated_queue_and_falls_back_when_full() {
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("only", 1).max_wait(Duration::from_millis(10))
        ])
        .sqa(100, 1);
        let c = ctl(cfg);
        let _long = c.admit(1_000_000, None).unwrap(); // takes the only slot
        let short = c.admit(5, None).unwrap(); // SQA lane, no wait
        assert!(short.via_sqa());
        assert_eq!(short.queue_wait_ns(), 0);
        // Second short query: SQA full → routed queue → times out.
        let err = c.admit(5, None).unwrap_err();
        assert!(err.to_string().contains("timeout"), "{err}");
        drop(short);
        let states = c.service_class_states();
        let sqa = states.iter().find(|s| s.name == "sqa").unwrap();
        assert_eq!(sqa.executed, 1);
    }

    #[test]
    fn drain_rejects_new_and_evicts_waiters_then_reopen_admits() {
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("d", 1).max_wait(Duration::from_secs(10))
        ]);
        let c = ctl(cfg);
        let g = c.admit(10, None).unwrap();
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || c2.admit(10, None));
        while c.service_class_states()[0].queued == 0 {
            std::thread::yield_now();
        }
        c.begin_drain();
        let evicted = waiter.join().unwrap();
        assert!(evicted.is_err(), "waiter evicted by drain");
        assert!(c.admit(10, None).is_err(), "draining rejects new queries");
        drop(g);
        assert!(c.wait_idle(Duration::from_secs(1)));
        c.reopen();
        assert!(c.admit(10, None).is_ok());
    }

    #[test]
    fn qmr_hop_rule_moves_running_query_to_wider_queue() {
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("narrow", 2)
                .max_cost(100)
                .rule("big_scan", QmrMetric::RowsScanned, 1_000, QmrAction::Hop),
            WlmQueueDef::new("wide", 4),
        ]);
        let sink = Arc::new(TraceSink::new());
        let c = Arc::new(WlmController::new(&cfg, Arc::clone(&sink)));
        let mut g = c.admit(10, None).unwrap();
        assert_eq!(g.service_class(), "narrow");
        g.evaluate_rules(&QmrStats { rows_scanned: 50_000, ..QmrStats::default() }).unwrap();
        assert_eq!(g.service_class(), "wide", "rule hop moved the running query");
        assert_eq!(g.hops(), 1);
        let states = c.service_class_states();
        assert_eq!(states[0].hopped, 1, "counted against the queue it left");
        assert_eq!(states[0].in_flight, 0);
        assert_eq!(states[1].in_flight, 1);
        drop(g);
        let firings = sink.records_named("wlm_rule_action");
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].attr_str("rule"), Some("big_scan"));
        assert_eq!(firings[0].attr_str("action"), Some("hop"));
        let recs = sink.records_named("wlm");
        let done = recs.iter().find(|r| r.attr_str("state") == Some("Completed")).unwrap();
        assert_eq!(done.attr_str("service_class"), Some("wide"));
        assert_eq!(done.attr_i64("hops"), Some(1), "rule hop counts in stl_wlm_query.hops");
    }

    #[test]
    fn qmr_abort_rule_releases_slot_and_errors() {
        let cfg = WlmConfig::with_queues(vec![WlmQueueDef::new("strict", 2).rule(
            "too_long",
            QmrMetric::QueryExecTime,
            1_000,
            QmrAction::Abort,
        )]);
        let sink = Arc::new(TraceSink::new());
        let c = Arc::new(WlmController::new(&cfg, Arc::clone(&sink)));
        let mut g = c.admit(10, None).unwrap();
        let err = g
            .evaluate_rules(&QmrStats { exec_ns: 5_000_000, ..QmrStats::default() })
            .unwrap_err();
        assert!(err.to_string().contains("aborted by monitoring rule 'too_long'"), "{err}");
        let st = &c.service_class_states()[0];
        assert_eq!(st.in_flight, 0, "abort released the slot");
        assert_eq!(st.aborted, 1);
        assert_eq!(st.executed, 0, "an aborted query is not a completion");
        drop(g); // Drop after abort must not double-release.
        assert_eq!(c.service_class_states()[0].in_flight, 0);
        let recs = sink.records_named("wlm");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].attr_str("state"), Some("Aborted"));
        assert_eq!(sink.counter_value("wlm.aborted"), 1);
    }

    #[test]
    fn qmr_all_firings_logged_but_strongest_action_wins() {
        // A log rule and a hop rule both fire: both recorded, hop applied.
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("narrow", 1)
                .max_cost(100)
                .rule("note_scan", QmrMetric::RowsScanned, 10, QmrAction::Log)
                .rule("move_scan", QmrMetric::RowsScanned, 100, QmrAction::Hop),
            WlmQueueDef::new("wide", 4),
        ]);
        let sink = Arc::new(TraceSink::new());
        let c = Arc::new(WlmController::new(&cfg, Arc::clone(&sink)));
        let mut g = c.admit(10, None).unwrap();
        g.evaluate_rules(&QmrStats { rows_scanned: 500, ..QmrStats::default() }).unwrap();
        assert_eq!(g.service_class(), "wide");
        drop(g);
        let firings = sink.records_named("wlm_rule_action");
        assert_eq!(firings.len(), 2, "every firing logged");
        assert_eq!(sink.counter_value("wlm.rule_actions"), 2);
    }

    #[test]
    fn qmr_queue_time_rule_fires_at_admission() {
        let cfg = WlmConfig::with_queues(vec![WlmQueueDef::new("q", 1)
            .max_wait(Duration::from_secs(5))
            .rule("slow_queue", QmrMetric::QueryQueueTime, 0, QmrAction::Log)]);
        let sink = Arc::new(TraceSink::new());
        let c = Arc::new(WlmController::new(&cfg, Arc::clone(&sink)));
        let g = c.admit(10, None).unwrap();
        assert!(
            sink.records_named("wlm_rule_action").is_empty(),
            "zero-wait admission never exceeds the threshold"
        );
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || c2.admit(10, None));
        while c.service_class_states()[0].queued == 0 {
            std::thread::yield_now();
        }
        drop(g);
        let g2 = waiter.join().unwrap().unwrap();
        assert!(g2.queue_wait_ns() > 0);
        let firings = sink.records_named("wlm_rule_action");
        assert_eq!(firings.len(), 1, "queue-time rule evaluated at admission");
        assert_eq!(firings[0].attr_str("metric"), Some("query_queue_time"));
    }

    #[test]
    fn stl_rows_match_admissions() {
        let cfg = WlmConfig::with_queues(vec![WlmQueueDef::new("q", 2)
            .max_queue_len(0)
            .max_wait(Duration::from_millis(5))]);
        let sink = Arc::new(TraceSink::new());
        let c = Arc::new(WlmController::new(&cfg, Arc::clone(&sink)));
        let g1 = c.admit(1, None).unwrap();
        let g2 = c.admit(1, None).unwrap();
        let _rej = c.admit(1, None).unwrap_err(); // queue bounded at 0
        drop(g1);
        drop(g2);
        let recs = sink.records_named("wlm");
        assert_eq!(recs.len(), 3, "every admission outcome recorded once");
        let states: Vec<_> =
            recs.iter().filter_map(|r| r.attr_str("state").map(str::to_string)).collect();
        assert_eq!(states.iter().filter(|s| *s == "Completed").count(), 2);
        assert_eq!(states.iter().filter(|s| *s == "Rejected").count(), 1);
    }

    #[test]
    fn wait_idle_counts_a_query_on_the_sqa_lane() {
        let cfg = WlmConfig::with_queues(vec![WlmQueueDef::new("q", 1)]).sqa(100, 1);
        let c = ctl(cfg);
        let short = c.admit(5, None).unwrap();
        assert!(short.via_sqa());
        assert!(!c.wait_idle(Duration::from_millis(20)), "a held SQA slot is not idle");
        // A drain waiting on the SQA slot wakes when it is released.
        let c2 = Arc::clone(&c);
        let idle = std::thread::spawn(move || c2.wait_idle(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        drop(short);
        assert!(idle.join().unwrap(), "idle once the SQA guard dropped");
    }

    #[test]
    fn sqa_is_the_last_service_class_and_never_waits() {
        let queue = || {
            WlmQueueDef::new("a", 1)
                .max_wait(Duration::from_secs(5))
                .rule("slow_queue", QmrMetric::QueryQueueTime, 0, QmrAction::Log)
                .rule("big_scan", QmrMetric::RowsScanned, 0, QmrAction::Abort)
        };
        let names = |c: &WlmController| -> Vec<String> {
            c.service_class_states().into_iter().map(|s| s.name).collect()
        };
        assert_eq!(names(&ctl(WlmConfig::with_queues(vec![queue()]))), ["a"], "SQA off");
        let sink = Arc::new(TraceSink::new());
        let cfg = WlmConfig::with_queues(vec![queue()]).sqa(100, 1);
        let c = Arc::new(WlmController::new(&cfg, Arc::clone(&sink)));
        assert_eq!(names(&c), ["a", "sqa"], "SQA comes last");

        let hog = c.admit(1_000_000, None).unwrap(); // fills "a"
        let mut short = c.admit(5, None).unwrap(); // "a" is full: SQA, no wait
        assert!(short.via_sqa());
        assert_eq!((short.service_class(), short.queue_wait_ns()), ("sqa", 0));
        // The routed queue's rules are not the SQA admission's.
        short.evaluate_rules(&QmrStats { rows_scanned: 1 << 40, ..QmrStats::default() }).unwrap();
        assert!(sink.records_named("wlm_rule_action").is_empty());

        // A full SQA class falls through to the routed queue and waits there.
        let c2 = Arc::clone(&c);
        let third = std::thread::spawn(move || c2.admit(5, None));
        while c.service_class_states()[0].queued == 0 {
            std::thread::yield_now();
        }
        drop(hog);
        let third = third.join().unwrap().unwrap();
        assert!(!third.via_sqa());
        assert_eq!(third.service_class(), "a");
        assert!(third.queue_wait_ns() > 0);
        let firings = sink.records_named("wlm_rule_action");
        assert_eq!(firings.len(), 1, "only the queued admission fires the queue-time rule");
        assert_eq!(firings[0].attr_str("rule"), Some("slow_queue"));
        drop((short, third));

        let recs = sink.records_named("wlm");
        let span = |class: &str| recs.iter().find(|r| r.attr_str("service_class") == Some(class));
        assert_eq!(span("sqa").and_then(|r| r.attr_bool("sqa")), Some(true));
        assert_eq!(span("a").and_then(|r| r.attr_bool("sqa")), Some(false));
        let sqa = c.service_class_states().pop().unwrap();
        assert_eq!((sqa.name.as_str(), sqa.slots, sqa.executed), ("sqa", 1, 1));
        assert_eq!((sqa.in_flight, sqa.queued, sqa.evicted, sqa.rejected), (0, 0, 0, 0));
    }

    #[test]
    fn a_user_group_query_under_the_sqa_ceiling_rides_sqa() {
        let cfg = WlmConfig::with_queues(vec![
            WlmQueueDef::new("etl", 2).user_group("etl_users"),
            WlmQueueDef::new("rest", 2),
        ])
        .sqa(100, 1);
        let c = ctl(cfg);
        let short = c.admit(5, Some("etl_users")).unwrap();
        assert_eq!(short.service_class(), "sqa", "SQA comes before the user-group match");
        let next = c.admit(5, Some("etl_users")).unwrap();
        assert_eq!(next.service_class(), "etl", "a full SQA class falls through to the group");
        let long = c.admit(1_000, Some("etl_users")).unwrap();
        assert_eq!(long.service_class(), "etl");
    }
}
