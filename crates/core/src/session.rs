//! The leader's session layer.
//!
//! §2: "The leader node accepts connections from client programs" — a
//! connection is a *session*: an authenticated user (no crypto here, see
//! DESIGN.md §12 non-goals — "authentication" is presenting a user
//! name), the user group WLM routes by, per-session settings
//! (COMPUPDATE default, result-cache opt-out), and the in-flight
//! statement. The session is the single source of truth for the
//! `userid`-style columns in `stl_*` tables and for WLM routing; the
//! sessionless `Cluster::query` runs through an implicit
//! single-statement session so both paths produce identical telemetry.
//!
//! Statements within one session are serialized (a client connection is
//! a pipe, not a pool); concurrency comes from opening many sessions,
//! which is exactly what `redsim_frontdoor`'s wire server does —
//! one session per accepted connection.

use crate::cluster::{Cluster, ExecSummary, QueryResult};
use redsim_common::{FxHashMap, Result, RsError};
use redsim_obs::TraceSink;
use redsim_testkit::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `stl_connection_log` ring capacity (oldest events age out).
const CONN_LOG_CAP: usize = 4096;

/// First userid handed out (Redshift reserves ids below 100 for
/// internal users; so do we).
const FIRST_USERID: u32 = 100;

/// Options for [`Cluster::connect`].
#[derive(Debug, Clone)]
pub struct SessionOpts {
    pub user: String,
    pub user_group: Option<String>,
    /// Result-cache participation (reads *and* fills); defaults on, like
    /// `enable_result_cache_for_session`.
    pub use_result_cache: bool,
    /// COMPUPDATE applied when a COPY statement doesn't say.
    pub comp_update_default: bool,
}

impl SessionOpts {
    pub fn new(user: impl Into<String>) -> SessionOpts {
        SessionOpts {
            user: user.into(),
            user_group: None,
            use_result_cache: true,
            comp_update_default: true,
        }
    }

    pub fn user_group(mut self, g: impl Into<String>) -> Self {
        self.user_group = Some(g.into());
        self
    }

    pub fn result_cache(mut self, on: bool) -> Self {
        self.use_result_cache = on;
        self
    }

    pub fn comp_update_default(mut self, on: bool) -> Self {
        self.comp_update_default = on;
        self
    }
}

/// Per-statement view of a session, threaded through the cluster's
/// statement paths. Implicit (sessionless-API) statements get one too,
/// so WLM routing and STL rows are uniform.
#[derive(Debug, Clone)]
pub(crate) struct SessionCtx {
    pub session_id: u64,
    pub userid: u32,
    pub user_group: Option<String>,
    pub use_result_cache: bool,
    pub comp_update_default: bool,
}

impl SessionCtx {
    /// Context for statements issued through the sessionless `Cluster`
    /// API without even an implicit registration (`execute`'s writes).
    /// Result cache off: the legacy API predates the cache and its
    /// callers assert on cold-execution telemetry.
    pub(crate) fn unregistered() -> SessionCtx {
        SessionCtx {
            session_id: 0,
            userid: FIRST_USERID,
            user_group: None,
            use_result_cache: false,
            comp_update_default: true,
        }
    }
}

/// State shared between a [`Session`] handle, the [`SessionManager`]'s
/// live map (for `stv_sessions`), and nothing else.
pub struct SessionShared {
    pub(crate) id: u64,
    pub(crate) userid: u32,
    pub(crate) user: String,
    pub(crate) user_group: Option<String>,
    /// Microseconds since the manager's epoch (cluster launch).
    pub(crate) connected_at_us: u64,
    pub(crate) statements: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    /// Statement text while one is executing (`stv_sessions.state`).
    pub(crate) in_flight: Mutex<Option<String>>,
    /// Implicit sessions back the sessionless API: they are
    /// live (gauge, `stv_sessions`) but skip the connection log.
    implicit: bool,
}

/// One `stl_connection_log` row.
#[derive(Debug, Clone)]
pub struct ConnEvent {
    /// `"initiating session"` or `"disconnecting session"`.
    pub event: &'static str,
    pub session: u64,
    pub userid: u32,
    pub user: String,
    pub at_us: u64,
    /// Session lifetime; zero for `initiating session` rows.
    pub duration_us: u64,
}

struct ManagerInner {
    live: FxHashMap<u64, Arc<SessionShared>>,
    /// user name → stable userid (assigned on first connect).
    user_ids: FxHashMap<String, u32>,
    next_session: u64,
    next_userid: u32,
    conn_log: VecDeque<ConnEvent>,
}

/// Registry of live sessions + the bounded connection log. Owned by the
/// cluster; `stv_sessions` / `stl_connection_log` materialize from it.
pub struct SessionManager {
    epoch: Instant,
    trace: Arc<TraceSink>,
    inner: Mutex<ManagerInner>,
}

impl SessionManager {
    pub(crate) fn new(trace: Arc<TraceSink>) -> SessionManager {
        SessionManager {
            epoch: Instant::now(),
            trace,
            inner: Mutex::new(ManagerInner {
                live: FxHashMap::default(),
                user_ids: FxHashMap::default(),
                next_session: 1,
                next_userid: FIRST_USERID,
                conn_log: VecDeque::new(),
            }),
        }
    }

    pub(crate) fn register(
        &self,
        user: &str,
        user_group: Option<&str>,
        implicit: bool,
    ) -> Arc<SessionShared> {
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock();
        let userid = match inner.user_ids.get(user) {
            Some(&id) => id,
            None => {
                let id = inner.next_userid;
                inner.next_userid += 1;
                inner.user_ids.insert(user.to_string(), id);
                id
            }
        };
        let id = inner.next_session;
        inner.next_session += 1;
        let shared = Arc::new(SessionShared {
            id,
            userid,
            user: user.to_string(),
            user_group: user_group.map(str::to_string),
            connected_at_us: at_us,
            statements: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            in_flight: Mutex::new(None),
            implicit,
        });
        inner.live.insert(id, Arc::clone(&shared));
        if !implicit {
            push_event(
                &mut inner.conn_log,
                ConnEvent {
                    event: "initiating session",
                    session: id,
                    userid,
                    user: user.to_string(),
                    at_us,
                    duration_us: 0,
                },
            );
            self.trace.counter("sessions.opened").incr();
        }
        self.trace.gauge("sessions.active").set(inner.live.len() as i64);
        shared
    }

    pub(crate) fn unregister(&self, shared: &SessionShared) {
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock();
        if inner.live.remove(&shared.id).is_none() {
            return; // double-unregister is a no-op
        }
        if !shared.implicit {
            push_event(
                &mut inner.conn_log,
                ConnEvent {
                    event: "disconnecting session",
                    session: shared.id,
                    userid: shared.userid,
                    user: shared.user.clone(),
                    at_us,
                    duration_us: at_us.saturating_sub(shared.connected_at_us),
                },
            );
        }
        self.trace.gauge("sessions.active").set(inner.live.len() as i64);
    }

    /// Live sessions, ordered by session id (for `stv_sessions`).
    pub fn live(&self) -> Vec<Arc<SessionShared>> {
        let inner = self.inner.lock();
        let mut v: Vec<_> = inner.live.values().cloned().collect();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Snapshot of the connection-log ring, oldest first.
    pub fn conn_events(&self) -> Vec<ConnEvent> {
        self.inner.lock().conn_log.iter().cloned().collect()
    }

    /// Number of live sessions (implicit ones included).
    pub fn active_count(&self) -> usize {
        self.inner.lock().live.len()
    }
}

fn push_event(log: &mut VecDeque<ConnEvent>, ev: ConnEvent) {
    if log.len() == CONN_LOG_CAP {
        log.pop_front();
    }
    log.push_back(ev);
}

impl SessionShared {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn userid(&self) -> u32 {
        self.userid
    }

    pub fn user(&self) -> &str {
        &self.user
    }

    pub fn user_group(&self) -> Option<&str> {
        self.user_group.as_deref()
    }

    pub fn connected_at_us(&self) -> u64 {
        self.connected_at_us
    }

    pub fn statements(&self) -> u64 {
        self.statements.load(Ordering::Relaxed)
    }

    pub fn result_cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// The executing statement, if any (`stv_sessions.state`).
    pub fn in_flight(&self) -> Option<String> {
        self.in_flight.lock().clone()
    }
}

/// A client session. Obtained from [`Cluster::connect`]; disconnects on
/// drop (abrupt client exits included — the wire server leans on this).
///
/// Statements are serialized per session by `stmt_lock`; share the
/// session across threads via `Arc` and they will queue, like commands
/// on one connection.
pub struct Session {
    cluster: Arc<Cluster>,
    shared: Arc<SessionShared>,
    stmt_lock: Mutex<()>,
    /// Identity plus the `SET`-able settings, cloned per statement.
    ctx: Mutex<SessionCtx>,
}

impl Session {
    pub(crate) fn open(cluster: Arc<Cluster>, opts: SessionOpts) -> Session {
        let shared = cluster.session_manager().register(
            &opts.user,
            opts.user_group.as_deref(),
            false,
        );
        let ctx = SessionCtx {
            session_id: shared.id,
            userid: shared.userid,
            user_group: opts.user_group,
            use_result_cache: opts.use_result_cache,
            comp_update_default: opts.comp_update_default,
        };
        Session { cluster, shared, stmt_lock: Mutex::new(()), ctx: Mutex::new(ctx) }
    }

    pub fn id(&self) -> u64 {
        self.shared.id
    }

    pub fn userid(&self) -> u32 {
        self.shared.userid
    }

    pub fn user(&self) -> &str {
        &self.shared.user
    }

    pub fn user_group(&self) -> Option<&str> {
        self.shared.user_group.as_deref()
    }

    /// Result-cache hits served to this session.
    pub fn result_cache_hits(&self) -> u64 {
        self.shared.result_cache_hits()
    }

    /// One statement at a time, visible in `stv_sessions` while it runs.
    fn run<T>(&self, sql: &str, f: impl FnOnce(&SessionCtx) -> Result<T>) -> Result<T> {
        let _serialize = self.stmt_lock.lock();
        *self.shared.in_flight.lock() = Some(sql.to_string());
        self.shared.statements.fetch_add(1, Ordering::Relaxed);
        let ctx = self.ctx.lock().clone();
        let r = f(&ctx);
        *self.shared.in_flight.lock() = None;
        r
    }

    /// Run a SELECT (or EXPLAIN) on this session.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let r = self.run(sql, |ctx| self.cluster.query_with_ctx(sql, ctx));
        if matches!(&r, Ok(q) if q.result_cache_hit) {
            self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Execute any statement on this session.
    pub fn execute(&self, sql: &str) -> Result<ExecSummary> {
        self.run(sql, |ctx| self.cluster.execute_with_ctx(sql, Some(ctx)))
    }

    /// `SET`-style session settings. Recognized names (case-insensitive):
    /// `enable_result_cache_for_session` and `compupdate`, with values
    /// `on|off|true|false`.
    pub fn set(&self, name: &str, value: &str) -> Result<()> {
        let on = match value.to_ascii_lowercase().as_str() {
            "on" | "true" | "1" => true,
            "off" | "false" | "0" => false,
            other => {
                return Err(RsError::Unsupported(format!(
                    "SET {name}: expected on/off, got {other:?}"
                )))
            }
        };
        match name.to_ascii_lowercase().as_str() {
            "enable_result_cache_for_session" => {
                self.ctx.lock().use_result_cache = on;
                Ok(())
            }
            "compupdate" => {
                self.ctx.lock().comp_update_default = on;
                Ok(())
            }
            other => Err(RsError::Unsupported(format!("unknown session setting {other:?}"))),
        }
    }

    /// The cluster this session is connected to.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.cluster.session_manager().unregister(&self.shared);
    }
}
