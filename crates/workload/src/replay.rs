//! Replay a synthesized [`Schedule`] against a live [`Cluster`] through
//! real [`Session`]s.
//!
//! Two modes share one code path per statement:
//!
//! * **Virtual** — ops run sequentially in schedule order while a
//!   [`VirtualClock`] jumps straight to each op's timestamp. Chaos
//!   `delay(ms)` failpoints are rerouted onto the same clock via the
//!   faultkit delay hook, so a multi-hour fleet day (including injected
//!   stalls) replays in seconds of wall time — and, being sequential,
//!   deterministically.
//! * **Wall** — tenants are partitioned across worker threads (a
//!   tenant's ops stay ordered on its own sessions) and ops fire at
//!   `op.at / time_scale` real seconds, or as fast as possible with no
//!   scale. This is the bench mode: real queue contention, real p99s.

use crate::config::{QueryClass, WorkloadConfig};
use crate::synth::{copy_object_body, OpKind, Schedule, ScheduledOp};
use redsim_common::{FxHashMap, Result, RetryPolicy};
use redsim_core::{Cluster, Session, SessionOpts, WlmAccounting};
use redsim_obs::Histogram;
use redsim_simkit::{SimTime, VirtualClock};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to drive the schedule against the cluster.
#[derive(Debug, Clone, Copy)]
pub enum ReplayMode {
    /// Sequential, virtual-time replay: deterministic, fast, no sleeps.
    Virtual,
    /// Concurrent wall-clock replay across `workers` threads.
    /// `time_scale` = virtual seconds per wall second (`None` = run ops
    /// back-to-back, ignoring timestamps).
    Wall { workers: usize, time_scale: Option<f64> },
}

/// Per-class replay outcome: counts plus a wall-clock latency histogram
/// (nanoseconds per statement).
#[derive(Debug)]
pub struct ClassStats {
    pub class: QueryClass,
    pub queries: u64,
    pub copies: u64,
    pub errors: u64,
    /// Queries answered from the leader result cache.
    pub cache_hits: u64,
    pub latency: Histogram,
    /// `Histogram` doesn't track minima; kept alongside for the CSV row.
    pub min_ns: u64,
}

impl ClassStats {
    fn new(class: QueryClass) -> ClassStats {
        ClassStats {
            class,
            queries: 0,
            copies: 0,
            errors: 0,
            cache_hits: 0,
            latency: Histogram::new(),
            min_ns: u64::MAX,
        }
    }

    pub fn statements(&self) -> u64 {
        self.queries + self.copies
    }

    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    fn absorb(&mut self, other: &ClassStats) {
        self.queries += other.queries;
        self.copies += other.copies;
        self.errors += other.errors;
        self.cache_hits += other.cache_hits;
        self.latency.merge(&other.latency);
        self.min_ns = self.min_ns.min(other.min_ns);
    }

    fn record(&mut self, op: &ScheduledOp, ns: u64, cache_hit: bool, err: bool) {
        match op.kind {
            OpKind::Query { .. } => self.queries += 1,
            OpKind::Copy { .. } => self.copies += 1,
        }
        if err {
            self.errors += 1;
        }
        if cache_hit {
            self.cache_hits += 1;
        }
        self.latency.record(ns);
        self.min_ns = self.min_ns.min(ns);
    }
}

/// What a replay run produced, for reports, benches, and invariants.
#[derive(Debug)]
pub struct ReplayReport {
    pub per_class: Vec<ClassStats>,
    /// Wall time the replay took.
    pub wall: Duration,
    /// Virtual time of the last executed op.
    pub virtual_end: SimTime,
    /// Cluster-wide WLM counter deltas over the run.
    pub wlm: WlmAccounting,
    /// Leader result-cache (hits, misses) deltas over the run.
    pub result_cache: (u64, u64),
}

impl ReplayReport {
    pub fn class(&self, c: QueryClass) -> &ClassStats {
        self.per_class.iter().find(|s| s.class == c).expect("all classes present")
    }

    pub fn total_statements(&self) -> u64 {
        self.per_class.iter().map(|s| s.statements()).sum()
    }

    pub fn total_errors(&self) -> u64 {
        self.per_class.iter().map(|s| s.errors).sum()
    }

    /// One human-readable line per class, for bench stdout.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in &self.per_class {
            out.push_str(&format!(
                "{:<10} {:>6} queries {:>4} copies  p50 {:>9}ns  p99 {:>9}ns  cache {:>5.1}%  errors {}\n",
                s.class.as_str(),
                s.queries,
                s.copies,
                s.latency.quantile(0.5),
                s.latency.quantile(0.99),
                s.cache_hit_rate() * 100.0,
                s.errors,
            ));
        }
        out.push_str(&format!(
            "wall {:?}  virtual {:.1}min  wlm admitted {} (sqa {} queued {})  result-cache {}/{}\n",
            self.wall,
            self.virtual_end.as_mins_f64(),
            self.wlm.admitted,
            self.wlm.sqa_admits,
            self.wlm.queued_admits,
            self.result_cache.0,
            self.result_cache.0 + self.result_cache.1,
        ));
        out
    }
}

/// Synthesizes a schedule from a config and replays it.
pub struct ReplayDriver {
    cfg: WorkloadConfig,
    schedule: Schedule,
}

impl ReplayDriver {
    pub fn new(cfg: WorkloadConfig) -> ReplayDriver {
        let schedule = Schedule::synthesize(&cfg);
        ReplayDriver { cfg, schedule }
    }

    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Launch a fresh cluster from the config and [`Self::prepare`] it.
    pub fn launch(&self, name: &str) -> Result<Arc<Cluster>> {
        let cluster = Cluster::launch(self.cfg.cluster(name))?;
        self.prepare(&cluster)?;
        Ok(cluster)
    }

    /// Create the `events` table, COPY the seed rows, and stage every
    /// object the schedule's COPY cadence will load.
    pub fn prepare(&self, cluster: &Arc<Cluster>) -> Result<()> {
        cluster.execute("CREATE TABLE events (k BIGINT, v BIGINT) DISTKEY(k)")?;
        let seed_key = "wl/seed-000000";
        cluster.put_s3_object(seed_key, copy_object_body(seed_key, self.cfg.seed_rows).into_bytes());
        cluster.execute(&format!("COPY events FROM 's3://{seed_key}'"))?;
        for (key, rows) in self.schedule.copy_objects() {
            cluster.put_s3_object(key, copy_object_body(key, rows).into_bytes());
        }
        Ok(())
    }

    /// Replay the schedule. The cluster should come from
    /// [`Self::launch`] (or at least have been [`Self::prepare`]d).
    pub fn run(&self, cluster: &Arc<Cluster>, mode: ReplayMode) -> Result<ReplayReport> {
        let wlm_before = cluster.wlm_accounting();
        let rc_before = cluster.result_cache_stats();
        let started = Instant::now();

        let (per_class, virtual_end) = match mode {
            ReplayMode::Virtual => self.run_virtual(cluster),
            ReplayMode::Wall { workers, time_scale } => {
                self.run_wall(cluster, workers.max(1), time_scale)
            }
        };

        let wlm_after = cluster.wlm_accounting();
        let rc_after = cluster.result_cache_stats();
        Ok(ReplayReport {
            per_class,
            wall: started.elapsed(),
            virtual_end,
            wlm: WlmAccounting {
                admitted: wlm_after.admitted - wlm_before.admitted,
                completed: wlm_after.completed - wlm_before.completed,
                aborted: wlm_after.aborted - wlm_before.aborted,
                evicted: wlm_after.evicted - wlm_before.evicted,
                rejected: wlm_after.rejected - wlm_before.rejected,
                hops: wlm_after.hops - wlm_before.hops,
                sqa_admits: wlm_after.sqa_admits - wlm_before.sqa_admits,
                queued_admits: wlm_after.queued_admits - wlm_before.queued_admits,
                rule_actions: wlm_after.rule_actions - wlm_before.rule_actions,
            },
            result_cache: (rc_after.0 - rc_before.0, rc_after.1 - rc_before.1),
        })
    }

    fn run_virtual(&self, cluster: &Arc<Cluster>) -> (Vec<ClassStats>, SimTime) {
        let clock = Arc::new(VirtualClock::new());
        {
            // Chaos delays advance the virtual clock instead of sleeping.
            let clock = Arc::clone(&clock);
            cluster.faults().install_delay_hook(move |ms| {
                clock.advance_millis(ms);
            });
        }
        let mut stats = QueryClass::ALL.map(ClassStats::new);
        let mut sessions: FxHashMap<(u32, QueryClass), Session> = FxHashMap::default();
        for op in self.schedule.ops() {
            clock.advance_to(op.at);
            run_op(cluster, &mut sessions, op, &mut stats);
        }
        cluster.faults().clear_delay_hook();
        drop(sessions);
        (stats.into_iter().collect(), clock.now())
    }

    fn run_wall(
        &self,
        cluster: &Arc<Cluster>,
        workers: usize,
        time_scale: Option<f64>,
    ) -> (Vec<ClassStats>, SimTime) {
        // Partition by tenant so each tenant's ops stay ordered on its
        // own sessions; workers otherwise run fully concurrently.
        let mut parts: Vec<Vec<&ScheduledOp>> = vec![Vec::new(); workers];
        for op in self.schedule.ops() {
            parts[op.tenant as usize % workers].push(op);
        }
        let virtual_end = self.schedule.ops().last().map_or(SimTime::from_micros(0), |o| o.at);
        let start = Instant::now();
        let merged = redsim_testkit::par::map(parts, |ops| {
            let mut stats = QueryClass::ALL.map(ClassStats::new);
            let mut sessions: FxHashMap<(u32, QueryClass), Session> = FxHashMap::default();
            for op in ops {
                if let Some(scale) = time_scale {
                    let target = Duration::from_secs_f64(op.at.as_secs_f64() / scale.max(1e-9));
                    let elapsed = start.elapsed();
                    if target > elapsed {
                        std::thread::sleep(target - elapsed);
                    }
                }
                run_op(cluster, &mut sessions, op, &mut stats);
            }
            stats
        });
        let mut totals = QueryClass::ALL.map(ClassStats::new);
        for worker_stats in &merged {
            for (t, w) in totals.iter_mut().zip(worker_stats.iter()) {
                t.absorb(w);
            }
        }
        (totals.into_iter().collect(), virtual_end)
    }
}

/// Execute one op on the tenant's session for its class, opening the
/// session lazily. Errors are counted, not propagated: a replay is a
/// fleet observation, and the report's `errors` field is what tests
/// assert on.
fn run_op(
    cluster: &Arc<Cluster>,
    sessions: &mut FxHashMap<(u32, QueryClass), Session>,
    op: &ScheduledOp,
    stats: &mut [ClassStats; 3],
) {
    let key = (op.tenant, op.class);
    if !sessions.contains_key(&key) {
        let mut opts = SessionOpts::new(format!("{}-{}", op.class.as_str(), op.tenant));
        if let Some(g) = op.class.user_group() {
            opts = opts.user_group(g);
        }
        match cluster.connect(opts) {
            Ok(s) => {
                sessions.insert(key, s);
            }
            Err(_) => {
                let slot = stats.iter_mut().find(|s| s.class == op.class).unwrap();
                slot.record(op, 0, false, true);
                return;
            }
        }
    }
    let session = &sessions[&key];
    let t0 = Instant::now();
    let (cache_hit, err) = match &op.kind {
        OpKind::Query { sql } => match session.query(sql) {
            Ok(r) => (r.result_cache_hit, false),
            Err(_) => (false, true),
        },
        OpKind::Copy { key, .. } => {
            let copy = format!("COPY events FROM 's3://{key}'");
            // Concurrent writers into one table resolve first-committer-
            // wins: the loser sees a retryable serializable-isolation
            // error. Retry like a real ETL client — every conflict means
            // some other writer is committing, so sleep (briefly, growing)
            // until it has: bounded by time, since on few cores a spinning
            // loser can burn any fixed attempt count before the winner
            // gets to run.
            let policy = RetryPolicy::default()
                .with_max_attempts(u32::MAX)
                .with_delays(Duration::from_micros(100), Duration::from_millis(5))
                .with_deadline(Duration::from_secs(10))
                .with_seed(op.tenant as u64);
            let err = policy.run("replay.copy", || session.execute(&copy)).is_err();
            (false, err)
        }
    };
    let ns = t0.elapsed().as_nanos() as u64;
    let slot = stats.iter_mut().find(|s| s.class == op.class).unwrap();
    slot.record(op, ns, cache_hit, err);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;

    #[test]
    fn virtual_replay_runs_clean_and_releases_sessions() {
        let driver = ReplayDriver::new(WorkloadConfig::quick(16).with_seed(7));
        let cluster = driver.launch("wl-virt").unwrap();
        let report = driver.run(&cluster, ReplayMode::Virtual).unwrap();

        assert_eq!(report.total_errors(), 0, "{}", report.summary());
        assert_eq!(report.total_statements(), driver.schedule().len() as u64);
        assert!(report.wlm.balanced(), "wlm ledger: {:?}", report.wlm);
        assert_eq!(cluster.session_manager().active_count(), 0, "sessions released");
        // Dashboards repeat a small pool: the result cache must be earning hits.
        let dash = report.class(QueryClass::Dashboard);
        assert!(dash.cache_hits > 0, "dashboard repeats should hit the cache");
        // The virtual clock reached the last op without wall sleeps.
        assert!(report.virtual_end.as_micros() > 0);
    }

    #[test]
    fn wall_replay_matches_virtual_counts() {
        let cfg = WorkloadConfig::quick(16).with_seed(11).scaled(0.5);
        let driver = ReplayDriver::new(cfg);
        let virt_cluster = driver.launch("wl-a").unwrap();
        let virt = driver.run(&virt_cluster, ReplayMode::Virtual).unwrap();
        let wall_cluster = driver.launch("wl-b").unwrap();
        let wall = driver
            .run(&wall_cluster, ReplayMode::Wall { workers: 4, time_scale: None })
            .unwrap();

        assert_eq!(wall.total_errors(), 0, "{}", wall.summary());
        for c in QueryClass::ALL {
            assert_eq!(virt.class(c).queries, wall.class(c).queries, "{c:?} query count");
            assert_eq!(virt.class(c).copies, wall.class(c).copies, "{c:?} copy count");
        }
        assert!(wall.wlm.balanced(), "wlm ledger: {:?}", wall.wlm);
        assert_eq!(wall_cluster.session_manager().active_count(), 0);
    }
}
