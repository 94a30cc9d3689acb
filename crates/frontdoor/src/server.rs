//! The concurrent wire server: one OS thread per accepted connection,
//! one [`Session`] per connection.
//!
//! §2: "The leader node accepts connections from client programs" —
//! here a TCP listener whose accept thread sleeps in a blocking
//! `accept` (drain wakes it with one loopback connect that is never
//! admitted), handing each connection to a thread that
//! speaks the frame protocol from [`crate::wire`]. Connection
//! concurrency is bounded by `max_connections`: excess clients get a
//! retryable `THROTTLE` error frame instead of an unbounded backlog.
//!
//! Drain is graceful by construction: stopping the accept loop and
//! half-closing (read side only) every live socket lets in-flight
//! statements finish and their responses flush, after which handlers
//! see EOF, drop their sessions, and exit. [`FrontDoor::shutdown`]
//! composes that drain with the cluster's own WLM drain.

use crate::wire::{
    encode_error, encode_response, read_frame, write_frame, Request, Response, WireRows,
};
use redsim_common::{FxHashMap, Result, RsError};
use redsim_core::session::SessionOpts;
use redsim_core::{Cluster, Session};
use redsim_obs::TraceSink;
use redsim_testkit::sync::Mutex;
use std::io::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for [`FrontDoor::serve`].
#[derive(Debug, Clone)]
pub struct ServerOpts {
    /// Bind address; port 0 picks a free port (read it back with
    /// [`FrontDoor::addr`]).
    pub addr: String,
    /// Connection-concurrency bound; the 65th client of a 64-limit
    /// server is told `THROTTLE` and disconnected.
    pub max_connections: usize,
    /// How long [`FrontDoor::drain`] waits for in-flight statements.
    pub drain_wait: Duration,
}

impl Default for ServerOpts {
    fn default() -> Self {
        ServerOpts {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            drain_wait: Duration::from_secs(10),
        }
    }
}

impl ServerOpts {
    pub fn addr(mut self, a: impl Into<String>) -> Self {
        self.addr = a.into();
        self
    }

    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    pub fn drain_wait(mut self, d: Duration) -> Self {
        self.drain_wait = d;
        self
    }
}

struct Shared {
    trace: Arc<TraceSink>,
    stop: AtomicBool,
    /// Live connection handlers (admitted, not yet exited).
    active: AtomicUsize,
    next_conn: AtomicU64,
    /// Read-half clones of every live socket, for drain's half-close.
    conns: Mutex<FxHashMap<u64, TcpStream>>,
    max_connections: usize,
}

impl Shared {
    fn set_gauge(&self) {
        self.trace.gauge("frontdoor.connections").set(self.active.load(Ordering::SeqCst) as i64);
    }
}

/// A running wire server bound to one cluster.
pub struct FrontDoor {
    cluster: Arc<Cluster>,
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<()>>>,
    local_addr: SocketAddr,
    drain_wait: Duration,
}

impl FrontDoor {
    /// Bind and start accepting. Returns once the listener is live.
    pub fn serve(cluster: Arc<Cluster>, opts: ServerOpts) -> Result<FrontDoor> {
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| RsError::ControlPlane(format!("bind {}: {e}", opts.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| RsError::ControlPlane(format!("local_addr: {e}")))?;
        let shared = Arc::new(Shared {
            trace: Arc::clone(cluster.trace()),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            next_conn: AtomicU64::new(1),
            conns: Mutex::new(FxHashMap::default()),
            max_connections: opts.max_connections,
        });
        let accept = {
            let cluster = Arc::clone(&cluster);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("frontdoor-accept".into())
                .spawn(move || accept_loop(listener, cluster, shared))
                .map_err(|e| RsError::ControlPlane(format!("spawn accept thread: {e}")))?
        };
        Ok(FrontDoor {
            cluster,
            shared,
            accept: Mutex::new(Some(accept)),
            local_addr,
            drain_wait: opts.drain_wait,
        })
    }

    /// The bound address (connect [`crate::WireClient`]s here).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live (admitted) connections right now.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// The cluster behind this front door.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Stop accepting and gracefully drain: in-flight statements finish
    /// and flush their responses; idle connections see EOF and close.
    /// Returns `true` if every handler exited within `drain_wait`.
    /// Idempotent.
    pub fn drain(&self) -> bool {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.lock().take() {
            // `accept` blocks: one loopback connect wakes it to see `stop`.
            // If no connect gets through, the thread is left to exit at
            // its next accept instead of joined, so drain stays bounded.
            if self.wake_accept() {
                let _ = h.join();
            }
        }
        // Half-close: reads unblock with EOF, writes (in-flight
        // responses) still flush.
        for (_, stream) in self.shared.conns.lock().iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let deadline = Instant::now() + self.drain_wait;
        while self.shared.active.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Connect to the listener so a blocked `accept` returns: up to three
    /// attempts, `false` when none got through.
    fn wake_accept(&self) -> bool {
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        (0..3).any(|attempt| {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            TcpStream::connect_timeout(&wake, Duration::from_millis(500)).is_ok()
        })
    }

    /// Drain the front door, then shut the cluster down (WLM drain +
    /// decommission) — the resize/shutdown hook.
    pub fn shutdown(&self) {
        self.drain();
        self.cluster.shutdown();
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: TcpListener, cluster: Arc<Cluster>, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // Drain's wake-up connection (or a client racing it) is dropped
        // unadmitted.
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, peer)) => admit(stream, peer, &cluster, &shared),
            // Out of descriptors and the like: back off, then retry.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn admit(mut stream: TcpStream, peer: SocketAddr, cluster: &Arc<Cluster>, shared: &Arc<Shared>) {
    // Reserve a slot first so racing accepts can't both pass the check.
    let slot = shared.active.fetch_add(1, Ordering::SeqCst);
    if slot >= shared.max_connections {
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.trace.counter("frontdoor.rejected").incr();
        let err = encode_response(&encode_error(&RsError::Throttled(format!(
            "connection limit ({}) reached; retry later",
            shared.max_connections
        ))));
        // Deliver the rejection off the accept thread, and read until
        // the client hangs up: closing with their Hello still unread
        // would RST the socket and can discard the error frame before
        // they see it.
        let _ = std::thread::Builder::new().name("frontdoor-reject".into()).spawn(move || {
            let _ = write_frame(&mut stream, &err);
            let _ = stream.flush();
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            let mut scratch = [0u8; 512];
            while matches!(std::io::Read::read(&mut stream, &mut scratch), Ok(n) if n > 0) {}
        });
        return;
    }
    shared.trace.counter("frontdoor.accepted").incr();
    shared.set_gauge();
    let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    if let Ok(clone) = stream.try_clone() {
        shared.conns.lock().insert(conn_id, clone);
    }
    let cluster = Arc::clone(cluster);
    let shared_for_handler = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name(format!("frontdoor-conn-{conn_id}"))
        .spawn(move || {
            handle_conn(stream, peer, conn_id, &cluster, &shared_for_handler);
            shared_for_handler.conns.lock().remove(&conn_id);
            shared_for_handler.active.fetch_sub(1, Ordering::SeqCst);
            shared_for_handler.set_gauge();
        });
    if spawned.is_err() {
        shared.conns.lock().remove(&conn_id);
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.set_gauge();
    }
}

/// Serve one connection until EOF, `Bye`, or a framing error. The
/// session drops (and unregisters) on every exit path — an abrupt
/// client disconnect cleans up exactly like a polite one.
fn handle_conn(
    mut stream: TcpStream,
    peer: SocketAddr,
    conn_id: u64,
    cluster: &Arc<Cluster>,
    shared: &Shared,
) {
    let mut span = shared.trace.span("frontdoor.conn");
    span.attr("conn", conn_id);
    span.attr("peer", peer.to_string());
    let mut statements = 0u64;
    let session = match expect_hello(&mut stream, cluster) {
        Some(s) => s,
        None => {
            span.attr("statements", statements);
            return;
        }
    };
    span.attr("session", session.id());
    span.attr("user", session.user().to_string());
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => break, // EOF (drain or client gone)
        };
        let reply = match crate::wire::decode_request(&payload) {
            Ok(Request::Bye) => {
                let _ = send(&mut stream, &Response::ByeOk);
                break;
            }
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Hello { .. }) => encode_error(&RsError::InvalidState(
                "session already established on this connection".into(),
            )),
            Ok(Request::Query { sql }) => {
                statements += 1;
                match session.query(&sql) {
                    Ok(r) => Response::Rows(WireRows {
                        columns: r.columns,
                        rows: r.rows,
                        cache_hit: r.cache_hit,
                        result_cache_hit: r.result_cache_hit,
                    }),
                    Err(e) => encode_error(&e),
                }
            }
            Ok(Request::Execute { sql }) => {
                statements += 1;
                match session.execute(&sql) {
                    Ok(s) => Response::Summary {
                        rows_affected: s.rows_affected,
                        message: s.message,
                    },
                    Err(e) => encode_error(&e),
                }
            }
            Ok(Request::Set { name, value }) => match session.set(&name, &value) {
                Ok(()) => Response::Summary { rows_affected: 0, message: "SET".into() },
                Err(e) => encode_error(&e),
            },
            Err(e) => {
                // Undecodable frame: answer typed, then hang up — the
                // stream can no longer be trusted to be in sync.
                let _ = send(&mut stream, &encode_error(&e));
                break;
            }
        };
        // Chaos seam: the client vanishes between executing a statement
        // and reading its reply. The statement's effect must stand (a
        // commit) or be invisible (an error) — never half-applied — and
        // the handler must clean up exactly like a polite disconnect.
        if !matches!(
            cluster.faults().fire(redsim_faultkit::fp::FRONTDOOR_DISCONNECT),
            redsim_faultkit::Outcome::Proceed
        ) {
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
        if send(&mut stream, &reply).is_err() {
            break;
        }
    }
    span.attr("statements", statements);
}

/// The first frame must be `Hello`; open the session it describes.
fn expect_hello(stream: &mut TcpStream, cluster: &Arc<Cluster>) -> Option<Session> {
    let payload = match read_frame(stream) {
        Ok(Some(p)) => p,
        _ => return None,
    };
    let (user, user_group) = match crate::wire::decode_request(&payload) {
        Ok(Request::Hello { user, user_group }) => (user, user_group),
        Ok(_) => {
            let _ = send(
                stream,
                &encode_error(&RsError::InvalidState("first message must be Hello".into())),
            );
            return None;
        }
        Err(e) => {
            let _ = send(stream, &encode_error(&e));
            return None;
        }
    };
    let mut opts = SessionOpts::new(user);
    if let Some(g) = user_group {
        opts = opts.user_group(g);
    }
    match cluster.connect(opts) {
        Ok(session) => {
            let hello = Response::HelloOk { session: session.id(), userid: session.userid() };
            if send(stream, &hello).is_err() {
                return None; // Session drops → unregisters
            }
            Some(session)
        }
        Err(e) => {
            let _ = send(stream, &encode_error(&e));
            None
        }
    }
}

fn send(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    write_frame(stream, &encode_response(resp))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use redsim_core::ClusterConfig;

    /// `(tid, timeslices run so far)` of every accept thread in this
    /// process, from `/proc/self/task/<tid>/schedstat`.
    fn accept_threads() -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
            let dir = task.path();
            // `comm` keeps the first 15 bytes of the thread name.
            let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            let stat = std::fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
            if let (true, Some(Ok(slices))) =
                (comm.trim_end() == "frontdoor-accep", stat.split_whitespace().nth(2).map(str::parse))
            {
                out.push((task.file_name().to_string_lossy().into_owned(), slices));
            }
        }
        out
    }

    #[test]
    fn accept_thread_sleeps_while_idle() {
        let before: Vec<String> = accept_threads().into_iter().map(|(tid, _)| tid).collect();
        let cluster = Cluster::launch(ClusterConfig::new("idle").nodes(2).slices_per_node(2)).unwrap();
        let door = FrontDoor::serve(cluster, ServerOpts::default()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let ours: Vec<(String, u64)> =
            accept_threads().into_iter().filter(|(tid, _)| !before.contains(tid)).collect();
        assert!(!ours.is_empty(), "the accept thread is not in /proc/self/task");
        std::thread::sleep(Duration::from_millis(500));
        let now = accept_threads();
        let woke = ours
            .iter()
            .map(|(tid, n)| now.iter().find(|(t, _)| t == tid).map_or(0, |(_, m)| m - n))
            .min()
            .unwrap();
        assert!(woke <= 2, "an idle accept thread ran {woke} timeslices in 500 ms");
        // Drain's wake-up connection is never admitted.
        let trace = Arc::clone(door.cluster().trace());
        assert!(door.drain());
        assert_eq!(trace.counter_value("frontdoor.accepted"), 0);
        assert_eq!(trace.gauge("frontdoor.connections").get(), 0);
        assert_eq!(door.active_connections(), 0);
        assert_eq!(door.cluster().session_manager().active_count(), 0);
    }

    #[test]
    fn drain_is_bounded_when_the_wake_up_connect_fails() {
        let cluster = Cluster::launch(ClusterConfig::new("unwoken").nodes(1).slices_per_node(1)).unwrap();
        let mut door = FrontDoor::serve(cluster, ServerOpts::default()).unwrap();
        let trace = Arc::clone(door.cluster().trace());
        // Aim the wake-up at a port nothing listens on: every connect fails.
        let live = door.local_addr;
        door.local_addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let drained = door.drain();
            let _ = tx.send(drained);
            door
        });
        let drained = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(drained, Ok(true), "drain did not return after a failed wake-up");
        // The detached accept thread exits at its next accept, unadmitted.
        drop(TcpStream::connect(live).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(trace.counter_value("frontdoor.accepted"), 0);
        assert_eq!(trace.gauge("frontdoor.connections").get(), 0);
    }
}
