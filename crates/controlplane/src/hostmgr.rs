//! Per-node host manager.
//!
//! §2.2: "each Amazon Redshift node has host manager software that helps
//! with deploying new database engine bits, aggregating events and
//! metrics, generating instance-level events, archiving and rotating
//! logs, and monitoring the host, database and log files for errors. The
//! host manager also has limited capability to perform actions, for
//! example, restarting a database process on failure."

use redsim_common::FxHashMap;
use redsim_obs::{AttrValue, TraceSink};
use redsim_simkit::SimTime;
use std::sync::Arc;

/// Health state of the supervised database process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    Running,
    Crashed,
    Restarting,
    /// Too many crashes in the window: escalate to the control plane
    /// (node replacement) instead of restarting forever.
    Escalated,
}

/// One node's host manager.
#[derive(Debug)]
pub struct HostManager {
    state: ProcessState,
    last_heartbeat: SimTime,
    restart_count: u32,
    /// Crash timestamps within the escalation window.
    recent_crashes: Vec<SimTime>,
    /// Aggregated error-log counters by error code (feeds the fleet's
    /// Pareto analysis).
    error_counts: FxHashMap<String, u64>,
    /// Rotated log segments (count; contents are out of scope).
    rotated_logs: u32,
    config: HostManagerConfig,
    /// Optional telemetry sink: restarts/escalations/errors surface as
    /// `hostmgr.*` counters and events ("aggregating events and
    /// metrics", §2.2).
    trace: Option<Arc<TraceSink>>,
}

/// Tunables.
#[derive(Debug, Clone)]
pub struct HostManagerConfig {
    /// Heartbeats older than this mark the process crashed.
    pub heartbeat_timeout: SimTime,
    /// Crashes within this window trigger escalation…
    pub escalation_window: SimTime,
    /// …when they reach this count.
    pub escalation_threshold: usize,
    /// Rotate logs after this many errors.
    pub rotate_after_errors: u64,
}

impl Default for HostManagerConfig {
    fn default() -> Self {
        HostManagerConfig {
            heartbeat_timeout: SimTime::from_secs(30),
            escalation_window: SimTime::from_mins(15),
            escalation_threshold: 3,
            rotate_after_errors: 1_000,
        }
    }
}

impl HostManager {
    pub fn new(config: HostManagerConfig) -> Self {
        HostManager {
            state: ProcessState::Running,
            last_heartbeat: SimTime::ZERO,
            restart_count: 0,
            recent_crashes: Vec::new(),
            error_counts: FxHashMap::default(),
            rotated_logs: 0,
            config,
            trace: None,
        }
    }

    /// Attach a telemetry sink (typically the owning cluster's).
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    pub fn state(&self) -> ProcessState {
        self.state
    }

    pub fn restart_count(&self) -> u32 {
        self.restart_count
    }

    pub fn rotated_logs(&self) -> u32 {
        self.rotated_logs
    }

    /// The database process reports liveness.
    pub fn heartbeat(&mut self, now: SimTime) {
        self.last_heartbeat = now;
        if self.state == ProcessState::Restarting {
            self.state = ProcessState::Running;
        }
    }

    /// Periodic monitor tick: detect missed heartbeats, restart or
    /// escalate. Returns the action taken, if any.
    pub fn tick(&mut self, now: SimTime) -> Option<ProcessState> {
        if self.state == ProcessState::Escalated {
            return None;
        }
        let silent = now.saturating_sub(self.last_heartbeat);
        // A Restarting process that never heartbeats again has crashed
        // again — that's the crash-loop case escalation exists for.
        if matches!(self.state, ProcessState::Running | ProcessState::Restarting)
            && silent > self.config.heartbeat_timeout
        {
            self.state = ProcessState::Crashed;
        }
        if self.state == ProcessState::Crashed {
            self.recent_crashes.push(now);
            let cutoff = now.saturating_sub(self.config.escalation_window);
            self.recent_crashes.retain(|&t| t >= cutoff);
            if self.recent_crashes.len() >= self.config.escalation_threshold {
                self.state = ProcessState::Escalated;
            } else {
                self.state = ProcessState::Restarting;
                self.restart_count += 1;
                // Restart counts as a fresh heartbeat grace period.
                self.last_heartbeat = now;
            }
            if let Some(t) = &self.trace {
                let (counter, event) = match self.state {
                    ProcessState::Escalated => ("hostmgr.escalations", "hostmgr.escalate"),
                    _ => ("hostmgr.restarts", "hostmgr.restart"),
                };
                t.counter(counter).incr();
                t.span(event).attr("at_secs", AttrValue::F64(now.as_secs_f64()));
            }
            return Some(self.state);
        }
        None
    }

    /// Ingest one error-log line (already classified to a code).
    pub fn record_error(&mut self, code: &str) {
        let total: u64 = {
            let c = self.error_counts.entry(code.to_string()).or_insert(0);
            *c += 1;
            self.error_counts.values().sum()
        };
        if total.is_multiple_of(self.config.rotate_after_errors) {
            self.rotated_logs += 1;
        }
        if let Some(t) = &self.trace {
            t.counter("hostmgr.errors").incr();
        }
    }

    /// Ingest a typed error directly. Classifies by stable code and —
    /// unlike raw [`Self::record_error`] — also tracks whether the error
    /// was transient (`is_retryable`), so the §5 Pareto analysis can
    /// separate throttle storms that exhausted their retry budget from
    /// genuinely permanent faults.
    pub fn record_rs_error(&mut self, err: &redsim_common::RsError) {
        self.record_error(err.code());
        if err.is_retryable() {
            if let Some(t) = &self.trace {
                t.counter("hostmgr.errors.retryable").incr();
            }
        }
    }

    /// Top-k error codes by count (shipped to the control plane for the
    /// fleet-wide Pareto analysis of §5).
    pub fn top_errors(&self, k: usize) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> =
            self.error_counts.iter().map(|(s, &c)| (s.clone(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> HostManager {
        HostManager::new(HostManagerConfig::default())
    }

    #[test]
    fn healthy_process_needs_no_action() {
        let mut m = mgr();
        m.heartbeat(SimTime::from_secs(10));
        assert_eq!(m.tick(SimTime::from_secs(20)), None);
        assert_eq!(m.state(), ProcessState::Running);
    }

    #[test]
    fn missed_heartbeats_trigger_restart() {
        let mut m = mgr();
        m.heartbeat(SimTime::from_secs(0));
        let action = m.tick(SimTime::from_secs(60));
        assert_eq!(action, Some(ProcessState::Restarting));
        assert_eq!(m.restart_count(), 1);
        // Process comes back.
        m.heartbeat(SimTime::from_secs(65));
        assert_eq!(m.state(), ProcessState::Running);
    }

    #[test]
    fn crash_loop_escalates() {
        let mut m = mgr();
        let mut t = SimTime::from_secs(0);
        m.heartbeat(t);
        // Three crashes inside the 15-minute window.
        for _ in 0..3 {
            t += SimTime::from_secs(120);
            m.tick(t);
        }
        assert_eq!(m.state(), ProcessState::Escalated);
        // Escalated nodes stop self-healing.
        assert_eq!(m.tick(t + SimTime::from_secs(600)), None);
    }

    #[test]
    fn spaced_crashes_do_not_escalate() {
        let mut m = mgr();
        let mut t = SimTime::ZERO;
        m.heartbeat(t);
        for _ in 0..5 {
            t += SimTime::from_hours(1); // outside the window each time
            m.tick(t);
            m.heartbeat(t + SimTime::from_secs(1));
        }
        assert_ne!(m.state(), ProcessState::Escalated);
        assert_eq!(m.restart_count(), 5);
    }

    #[test]
    fn error_aggregation_and_rotation() {
        let mut m = mgr();
        for _ in 0..1_500 {
            m.record_error("EXEC");
        }
        for _ in 0..700 {
            m.record_error("STORAGE");
        }
        let top = m.top_errors(2);
        assert_eq!(top[0].0, "EXEC");
        assert_eq!(top[0].1, 1_500);
        assert_eq!(top[1].0, "STORAGE");
        assert!(m.rotated_logs() >= 2);
    }

    #[test]
    fn typed_errors_classify_and_count_retryables() {
        use redsim_common::RsError;
        let sink = Arc::new(TraceSink::new());
        let mut m = HostManager::new(HostManagerConfig::default()).with_trace(Arc::clone(&sink));
        // A retry-exhausted throttle (transient class preserved) and a
        // permanent fault land in different Pareto buckets.
        m.record_rs_error(&RsError::Throttled(
            "injected throttle at failpoint s3.get (retry attempt budget exhausted after 6 \
             attempts on s3.get)"
                .into(),
        ));
        m.record_rs_error(&RsError::NotFound("s3://r/k".into()));
        let top = m.top_errors(2);
        assert_eq!(top[0].1, 1);
        assert!(top.iter().any(|(c, _)| c == "THROTTLE"));
        assert!(top.iter().any(|(c, _)| c == "NOT_FOUND"));
        assert_eq!(sink.counter_value("hostmgr.errors"), 2);
        assert_eq!(sink.counter_value("hostmgr.errors.retryable"), 1);
    }

    #[test]
    fn telemetry_counters_and_events() {
        let sink = Arc::new(TraceSink::new());
        let mut m = HostManager::new(HostManagerConfig::default()).with_trace(Arc::clone(&sink));
        m.heartbeat(SimTime::from_secs(0));
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            t += SimTime::from_secs(120);
            m.tick(t);
        }
        m.record_error("EXEC");
        assert_eq!(sink.counter_value("hostmgr.restarts"), 2);
        assert_eq!(sink.counter_value("hostmgr.escalations"), 1);
        assert_eq!(sink.counter_value("hostmgr.errors"), 1);
        assert_eq!(sink.records_named("hostmgr.escalate").len(), 1);
        assert_eq!(sink.open_spans(), 0);
    }
}
