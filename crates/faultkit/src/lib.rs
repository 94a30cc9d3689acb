//! # faultkit — deterministic failpoint substrate
//!
//! The paper's §5 lesson is "design escalators, not elevators": the
//! service stays available by *degrading* under faults rather than
//! falling over. To test that continuously instead of anecdotally, this
//! crate provides a registry of **named failpoints** that production
//! code consults at its fault-prone seams (`s3.get`,
//! `mirror.write.secondary`, `restore.page_fault`, …). Tests — or an
//! operator via `RSIM_FAILPOINTS` — arm a failpoint with an action:
//!
//! * `err(class)` — return a typed error (throttle / fault / notfound /
//!   repl), mapped to `RsError` at the call site;
//! * `delay(ms)`  — sleep, then proceed (latency injection). When a
//!   virtual-time harness has installed a delay hook
//!   ([`FaultRegistry::install_delay_hook`]), the hook is called with
//!   the milliseconds instead of sleeping — chaos schedules replayed on
//!   `simkit` virtual time advance a clock and finish in milliseconds
//!   of wall time;
//! * `drop`       — tell the call site to silently skip the operation
//!   (lost write / lost message semantics, site-defined).
//!
//! Each action carries a trigger: `once`, `times=N`, or `p=0.2`
//! (Bernoulli off a seeded PCG32, so every chaos schedule is replayable
//! with `RSIM_SEED`).
//!
//! ## Cost when disarmed
//!
//! Failpoints sit on the hottest storage paths, so the disarmed check
//! must be near-free: [`FaultRegistry::fire`] is a **single relaxed
//! atomic load** when nothing is armed (`armed == 0`); the disarmed
//! seams sit on every benchmark workload's path, so their cost is inside
//! each `cpu_ms_per_stmt`. The mutex-guarded slow path only runs while
//! at least one failpoint is armed.
//!
//! ## Environment DSL
//!
//! ```text
//! RSIM_FAILPOINTS="s3.get=err(throttle,p=0.2);mirror.write.secondary=err(once)"
//! RSIM_SEED=42
//! ```
//!
//! Entries are `name=action` separated by `;`. Action arguments are
//! comma-separated tokens: an error class (`throttle`, `fault`,
//! `notfound`, `repl`), a trigger (`once`, `times=N`, `p=F`), or — for
//! `delay` — a leading integer millisecond count. Omitted class
//! defaults to `fault`; omitted trigger means "always".
//!
//! This crate is a zero-dependency leaf (like `testkit` and `obs`);
//! `ci.sh` enforces that with a `cargo tree` guard. It carries its own
//! private PCG32 (bit-identical to `testkit::rng::Pcg32`) so arming a
//! failpoint never changes the dependency graph.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Canonical failpoint names. The registry accepts any string, but
/// production call sites should use these constants so chaos configs,
/// docs and `stl_fault_event` rows agree on spelling.
pub mod fp {
    /// `S3Sim::get` — any simulated GET, including restore page faults
    /// routed through the store.
    pub const S3_GET: &str = "s3.get";
    /// `S3Sim::put_checked` — durable object writes (backup drain,
    /// snapshot manifests).
    pub const S3_PUT: &str = "s3.put";
    /// `S3Sim::copy_object` — cross-region DR copies.
    pub const S3_COPY_OBJECT: &str = "s3.copy_object";
    /// Primary-replica block write inside `ReplicatedStore::put_from`.
    pub const MIRROR_WRITE_PRIMARY: &str = "mirror.write.primary";
    /// Secondary-replica block write inside `ReplicatedStore::put_from`.
    pub const MIRROR_WRITE_SECONDARY: &str = "mirror.write.secondary";
    /// Per-block upload in `ReplicatedStore::drain_backup_queue`.
    pub const MIRROR_BACKUP_DRAIN: &str = "mirror.backup_drain";
    /// Per-block copy in `ReplicatedStore::re_replicate`.
    pub const MIRROR_RE_REPLICATE: &str = "mirror.re_replicate";
    /// S3 page-fault fetch in `ReplicatedStore::fault_in` (demand reads
    /// no live replica serves, and restore hydration).
    pub const RESTORE_PAGE_FAULT: &str = "restore.page_fault";
    /// Per-object fetch in the COPY loader (`Cluster::run_copy`).
    pub const COPY_FETCH_OBJECT: &str = "copy.fetch_object";
    /// Redo-log record append (`Wal::append`), before the record lands
    /// in the unsynced tail.
    pub const WAL_APPEND: &str = "wal.append";
    /// Redo-log fsync point (`Wal::sync`), before unsynced bytes become
    /// durable.
    pub const WAL_SYNC: &str = "wal.sync";
    /// Commit-record append+sync (`Wal::commit`): a fault here models a
    /// crash after the payload is durable but before the commit mark.
    pub const WAL_COMMIT: &str = "wal.commit";
    /// Log truncation after a checkpoint record (`Wal::truncate_to`).
    pub const WAL_TRUNCATE: &str = "wal.truncate";
    /// Front-door connection teardown between executing a statement and
    /// sending its reply frame (`frontdoor::handle_conn`).
    pub const FRONTDOOR_DISCONNECT: &str = "frontdoor.disconnect";
    /// Per-slice scan fragment in `Executor::exec_scan`, fired before
    /// the slice touches storage — exercises partial-scan failure paths
    /// (a failed slice must not leak partial metrics into stl_query).
    pub const EXEC_SCAN_SLICE: &str = "exec.scan_slice";

    /// All canonical names, for docs/tests/chaos generators.
    pub const ALL: &[&str] = &[
        S3_GET,
        S3_PUT,
        S3_COPY_OBJECT,
        MIRROR_WRITE_PRIMARY,
        MIRROR_WRITE_SECONDARY,
        MIRROR_BACKUP_DRAIN,
        MIRROR_RE_REPLICATE,
        RESTORE_PAGE_FAULT,
        COPY_FETCH_OBJECT,
        WAL_APPEND,
        WAL_SYNC,
        WAL_COMMIT,
        WAL_TRUNCATE,
        FRONTDOOR_DISCONNECT,
        EXEC_SCAN_SLICE,
    ];
}

/// Error class carried by an `err(..)` action. `RsError::injected` (in
/// `redsim-common`) maps these to `RsError` variants (`Throttled`,
/// `FaultInjected`, `NotFound`, `Replication`), which drive
/// `is_retryable()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrClass {
    /// Transient service throttle — retryable.
    Throttle,
    /// Generic injected transient fault — retryable.
    Fault,
    /// Object genuinely missing — permanent, fails fast.
    NotFound,
    /// Replication-layer transient — retryable.
    Repl,
}

impl ErrClass {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrClass::Throttle => "throttle",
            ErrClass::Fault => "fault",
            ErrClass::NotFound => "notfound",
            ErrClass::Repl => "repl",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "throttle" => Some(ErrClass::Throttle),
            "fault" => Some(ErrClass::Fault),
            "notfound" => Some(ErrClass::NotFound),
            "repl" => Some(ErrClass::Repl),
            _ => None,
        }
    }
}

/// What an armed failpoint does when its trigger matches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Return a typed error of the given class.
    Err(ErrClass),
    /// Sleep for the given milliseconds, then let the operation proceed.
    Delay(u64),
    /// Tell the call site to silently skip the operation.
    Drop,
}

impl FaultAction {
    fn kind(&self) -> &'static str {
        match self {
            FaultAction::Err(_) => "err",
            FaultAction::Delay(_) => "delay",
            FaultAction::Drop => "drop",
        }
    }
}

/// When an armed failpoint's action applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every evaluation.
    Always,
    /// The next `n` evaluations (`Times(1)` == `once`). Exhausted
    /// failpoints disarm themselves, restoring the fast path.
    Times(u32),
    /// Each evaluation independently with probability `p`, drawn from
    /// the registry's seeded PCG32.
    Prob(f64),
}

/// A complete failpoint configuration: action + trigger. Built either
/// from the DSL ([`parse_spec`]) or programmatically:
///
/// ```
/// use redsim_faultkit::{FaultSpec, ErrClass};
/// let spec = FaultSpec::err(ErrClass::Throttle).prob(0.2);
/// let one_shot = FaultSpec::err(ErrClass::Repl).once();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    pub action: FaultAction,
    pub trigger: Trigger,
}

impl FaultSpec {
    pub fn err(class: ErrClass) -> Self {
        FaultSpec { action: FaultAction::Err(class), trigger: Trigger::Always }
    }
    pub fn delay_ms(ms: u64) -> Self {
        FaultSpec { action: FaultAction::Delay(ms), trigger: Trigger::Always }
    }
    pub fn drop_op() -> Self {
        FaultSpec { action: FaultAction::Drop, trigger: Trigger::Always }
    }
    pub fn once(mut self) -> Self {
        self.trigger = Trigger::Times(1);
        self
    }
    pub fn times(mut self, n: u32) -> Self {
        self.trigger = Trigger::Times(n);
        self
    }
    pub fn prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.trigger = Trigger::Prob(p);
        self
    }
}

/// What [`FaultRegistry::fire`] tells the call site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a fired failpoint changes control flow; ignoring it defeats injection"]
pub enum Outcome {
    /// Proceed normally (disarmed, trigger didn't match, or a delay was
    /// already served).
    Proceed,
    /// Fail the operation with this error class.
    Err(ErrClass),
    /// Silently skip the operation (site-defined lost-write semantics).
    Drop,
}

impl Outcome {
    /// True when the failpoint actually injected something (error or
    /// drop; served delays count as injections in the event log but
    /// still return `Proceed`).
    pub fn fired(&self) -> bool {
        !matches!(self, Outcome::Proceed)
    }
}

/// One injected fault, recorded for `stl_fault_event`.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Monotone per-registry sequence number.
    pub seq: u64,
    /// Nanoseconds since the registry was created.
    pub at_ns: u64,
    /// Failpoint name (`s3.get`, …).
    pub failpoint: String,
    /// Action kind: `err` / `delay` / `drop`.
    pub action: &'static str,
    /// Error class for `err` actions, `-` otherwise.
    pub class: &'static str,
}

/// Per-failpoint counters, exposed for assertions and system tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FpStats {
    pub failpoint: String,
    /// Evaluations while this failpoint was armed.
    pub hits: u64,
    /// Evaluations where the action applied.
    pub fires: u64,
    /// Still armed (false once `once`/`times` exhausts or it is cleared).
    pub active: bool,
}

#[derive(Debug)]
struct FpState {
    spec: FaultSpec,
    /// Remaining firings for `Times`; `u32::MAX` for unlimited.
    remaining: u32,
    hits: u64,
    fires: u64,
    active: bool,
}

#[derive(Debug)]
struct Inner {
    points: BTreeMap<String, FpState>,
    rng: Pcg32,
    events: VecDeque<FaultEvent>,
    seq: u64,
}

/// Capacity of the in-registry event ring consumed by
/// `stl_fault_event`. Old events are dropped, never blocked on.
const EVENT_CAP: usize = 4096;

/// A registry of named failpoints. One per simulated cluster (owned by
/// `S3Sim` and shared by every layer that rides on it), so parallel
/// tests never interfere through process globals.
pub struct FaultRegistry {
    /// Number of currently-armed failpoints. The entire disarmed fast
    /// path is `armed.load(Relaxed) == 0`.
    armed: AtomicU32,
    inner: Mutex<Inner>,
    epoch: Instant,
    /// When set, `delay(ms)` calls this instead of `thread::sleep` —
    /// the seam virtual-time replay uses to charge injected latency to
    /// a sim clock. Kept outside `Inner` (it is not `Debug`, and it is
    /// read after the registry lock is released).
    delay_hook: Mutex<Option<DelayHook>>,
}

/// Receives `delay(ms)` milliseconds in place of a wall sleep.
/// `std`-only by design: faultkit stays a zero-dependency leaf, so the
/// clock it advances (e.g. `simkit::VirtualClock`) is captured by the
/// closure, not named here.
pub type DelayHook = std::sync::Arc<dyn Fn(u64) + Send + Sync>;

impl std::fmt::Debug for FaultRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultRegistry")
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .finish()
    }
}

impl FaultRegistry {
    /// An empty, disarmed registry with an explicit RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultRegistry {
            armed: AtomicU32::new(0),
            inner: Mutex::new(Inner {
                points: BTreeMap::new(),
                rng: Pcg32::seed_from_u64(seed),
                events: VecDeque::new(),
                seq: 0,
            }),
            epoch: Instant::now(),
            delay_hook: Mutex::new(None),
        }
    }

    /// Route `delay(ms)` injections through `hook` instead of a wall
    /// sleep. Install once per virtual-time run (the workload replay
    /// driver does this in virtual mode); [`Self::clear_delay_hook`]
    /// restores wall sleeps.
    pub fn install_delay_hook(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        *self.delay_hook.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(std::sync::Arc::new(hook));
    }

    /// Remove any installed delay hook; `delay(ms)` sleeps again.
    pub fn clear_delay_hook(&self) {
        *self.delay_hook.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Build from the environment: seed from `RSIM_SEED` (decimal or
    /// `0x`-hex, default 0), config from `RSIM_FAILPOINTS`. A malformed
    /// DSL panics with the offending entry — a chaos run with a typo'd
    /// config silently testing nothing is worse than a crash.
    pub fn from_env() -> Self {
        let seed = std::env::var("RSIM_SEED")
            .ok()
            .and_then(|s| parse_seed(&s))
            .unwrap_or(0);
        let reg = FaultRegistry::new(seed);
        if let Ok(cfg) = std::env::var("RSIM_FAILPOINTS") {
            reg.configure_str(&cfg)
                .unwrap_or_else(|e| panic!("RSIM_FAILPOINTS: {e}"));
        }
        reg
    }

    /// Arm (or re-arm) a failpoint. Counters for the name persist
    /// across re-arms; the trigger budget resets.
    pub fn configure(&self, name: &str, spec: FaultSpec) {
        let mut inner = self.lock();
        let remaining = match spec.trigger {
            Trigger::Times(n) => n,
            _ => u32::MAX,
        };
        let entry = inner.points.entry(name.to_string()).or_insert(FpState {
            spec,
            remaining,
            hits: 0,
            fires: 0,
            active: false,
        });
        entry.spec = spec;
        entry.remaining = remaining;
        if !entry.active {
            entry.active = true;
            self.armed.fetch_add(1, Ordering::Relaxed);
        }
        // A `times(0)` spec is armed-then-immediately-exhausted; keep
        // the invariant that armed counts *live* failpoints.
        if remaining == 0 {
            entry.active = false;
            self.armed.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Arm failpoints from a DSL string
    /// (`"s3.get=err(throttle,p=0.2);mirror.write.secondary=err(once)"`).
    pub fn configure_str(&self, config: &str) -> Result<(), String> {
        for (name, spec) in parse_config(config)? {
            self.configure(&name, spec);
        }
        Ok(())
    }

    /// Disarm one failpoint (counters are kept for post-mortems).
    pub fn clear(&self, name: &str) {
        let mut inner = self.lock();
        if let Some(st) = inner.points.get_mut(name) {
            if st.active {
                st.active = false;
                self.armed.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Disarm everything (counters and events are kept).
    pub fn clear_all(&self) {
        let mut inner = self.lock();
        for st in inner.points.values_mut() {
            if st.active {
                st.active = false;
                self.armed.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Reseed the trigger RNG (used by chaos harnesses between cases).
    pub fn reseed(&self, seed: u64) {
        self.lock().rng = Pcg32::seed_from_u64(seed);
    }

    /// Number of currently-armed failpoints.
    pub fn armed_count(&self) -> u32 {
        self.armed.load(Ordering::Relaxed)
    }

    /// Evaluate a failpoint. **Hot path:** when nothing is armed this
    /// is one relaxed atomic load and an immediate `Proceed`.
    #[inline]
    pub fn fire(&self, name: &str) -> Outcome {
        if self.armed.load(Ordering::Relaxed) == 0 {
            return Outcome::Proceed;
        }
        self.fire_slow(name)
    }

    #[cold]
    fn fire_slow(&self, name: &str) -> Outcome {
        let mut inner = self.lock();
        let Inner { points, rng, events, seq } = &mut *inner;
        let Some(st) = points.get_mut(name) else {
            return Outcome::Proceed;
        };
        if !st.active {
            return Outcome::Proceed;
        }
        st.hits += 1;
        let matched = match st.spec.trigger {
            Trigger::Always => true,
            Trigger::Times(_) => st.remaining > 0,
            Trigger::Prob(p) => rng.next_f64() < p,
        };
        if !matched {
            return Outcome::Proceed;
        }
        if let Trigger::Times(_) = st.spec.trigger {
            st.remaining -= 1;
            if st.remaining == 0 {
                st.active = false;
                self.armed.fetch_sub(1, Ordering::Relaxed);
            }
        }
        st.fires += 1;
        let action = st.spec.action;
        *seq += 1;
        let ev = FaultEvent {
            seq: *seq,
            at_ns: self.epoch.elapsed().as_nanos() as u64,
            failpoint: name.to_string(),
            action: action.kind(),
            class: match action {
                FaultAction::Err(c) => c.as_str(),
                _ => "-",
            },
        };
        if events.len() == EVENT_CAP {
            events.pop_front();
        }
        events.push_back(ev);
        drop(inner); // never sleep under the registry lock
        match action {
            FaultAction::Err(class) => Outcome::Err(class),
            FaultAction::Drop => Outcome::Drop,
            FaultAction::Delay(ms) => {
                let hook =
                    self.delay_hook.lock().unwrap_or_else(|e| e.into_inner()).clone();
                match hook {
                    Some(h) => h(ms),
                    None => std::thread::sleep(std::time::Duration::from_millis(ms)),
                }
                Outcome::Proceed
            }
        }
    }

    /// Snapshot of the injected-fault log (oldest first).
    pub fn events(&self) -> Vec<FaultEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Total faults injected since creation (monotone; unlike
    /// `events()` it is not bounded by the ring capacity).
    pub fn injected_total(&self) -> u64 {
        self.lock().seq
    }

    /// Per-failpoint counters, sorted by name.
    pub fn stats(&self) -> Vec<FpStats> {
        self.lock()
            .points
            .iter()
            .map(|(name, st)| FpStats {
                failpoint: name.clone(),
                hits: st.hits,
                fires: st.fires,
                active: st.active,
            })
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Poison-tolerant: a panicking test thread must not wedge every
        // other cluster sharing the process.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Default for FaultRegistry {
    fn default() -> Self {
        FaultRegistry::new(0)
    }
}

// ---------------------------------------------------------------------
// DSL parsing
// ---------------------------------------------------------------------

/// Parse a full `RSIM_FAILPOINTS` config into `(name, spec)` pairs.
/// Entries are `;`-separated; blanks are ignored.
pub fn parse_config(config: &str) -> Result<Vec<(String, FaultSpec)>, String> {
    let mut out = Vec::new();
    for entry in config.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, action) = entry
            .split_once('=')
            .ok_or_else(|| format!("entry {entry:?}: expected name=action"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("entry {entry:?}: empty failpoint name"));
        }
        out.push((name.to_string(), parse_spec(action.trim())?));
    }
    Ok(out)
}

/// Parse one action spec: `err(throttle,p=0.2)`, `delay(5,once)`,
/// `drop`, `err(once)`, `delay(10)`, `drop(times=3)`.
pub fn parse_spec(spec: &str) -> Result<FaultSpec, String> {
    let (head, args) = match spec.find('(') {
        Some(i) => {
            let inner = spec[i + 1..]
                .strip_suffix(')')
                .ok_or_else(|| format!("action {spec:?}: missing ')'"))?;
            (&spec[..i], inner)
        }
        None => (spec, ""),
    };
    let mut class: Option<ErrClass> = None;
    let mut trigger = Trigger::Always;
    let mut delay_ms: Option<u64> = None;
    for tok in args.split(',') {
        let tok = tok.trim();
        if tok.is_empty() {
            continue;
        }
        if let Some(c) = ErrClass::parse(tok) {
            class = Some(c);
        } else if tok == "once" {
            trigger = Trigger::Times(1);
        } else if let Some(v) = tok.strip_prefix("times=") {
            let n: u32 = v
                .parse()
                .map_err(|_| format!("action {spec:?}: bad times={v:?}"))?;
            trigger = Trigger::Times(n);
        } else if let Some(v) = tok.strip_prefix("p=") {
            let p: f64 = v
                .parse()
                .map_err(|_| format!("action {spec:?}: bad p={v:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("action {spec:?}: p={p} out of [0,1]"));
            }
            trigger = Trigger::Prob(p);
        } else if let Ok(ms) = tok.parse::<u64>() {
            delay_ms = Some(ms);
        } else {
            return Err(format!("action {spec:?}: unknown token {tok:?}"));
        }
    }
    let action = match head.trim() {
        "err" => FaultAction::Err(class.unwrap_or(ErrClass::Fault)),
        "delay" => FaultAction::Delay(
            delay_ms.ok_or_else(|| format!("action {spec:?}: delay needs milliseconds"))?,
        ),
        "drop" => FaultAction::Drop,
        other => return Err(format!("action {spec:?}: unknown action {other:?}")),
    };
    if matches!(action, FaultAction::Drop | FaultAction::Delay(_)) && class.is_some() {
        return Err(format!("action {spec:?}: error class only applies to err(..)"));
    }
    Ok(FaultSpec { action, trigger })
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

// ---------------------------------------------------------------------
// Private PCG32 — bit-identical to testkit::rng::Pcg32 so RSIM_SEED
// replays line up across crates, but copied in so faultkit stays a
// zero-dependency leaf.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 { state: 0, inc: (stream << 1) | 1 };
        rng.step();
        rng.state = rng.state.wrapping_add(seed);
        rng.step();
        rng
    }

    fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed, 0)
    }

    fn step(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    fn next_u64(&mut self) -> u64 {
        ((self.step() as u64) << 32) | self.step() as u64
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_registry_always_proceeds() {
        let reg = FaultRegistry::new(1);
        assert_eq!(reg.armed_count(), 0);
        for name in fp::ALL {
            assert_eq!(reg.fire(name), Outcome::Proceed);
        }
        assert!(reg.events().is_empty());
    }

    #[test]
    fn err_always_fires_every_time() {
        let reg = FaultRegistry::new(1);
        reg.configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle));
        for _ in 0..5 {
            assert_eq!(reg.fire(fp::S3_GET), Outcome::Err(ErrClass::Throttle));
        }
        // Other failpoints are unaffected.
        assert_eq!(reg.fire(fp::S3_PUT), Outcome::Proceed);
        let st = &reg.stats()[0];
        assert_eq!((st.hits, st.fires), (5, 5));
    }

    #[test]
    fn once_fires_exactly_once_then_disarms() {
        let reg = FaultRegistry::new(1);
        reg.configure(fp::MIRROR_WRITE_SECONDARY, FaultSpec::err(ErrClass::Repl).once());
        assert_eq!(reg.armed_count(), 1);
        assert_eq!(reg.fire(fp::MIRROR_WRITE_SECONDARY), Outcome::Err(ErrClass::Repl));
        // Exhausted: disarmed, back on the single-load fast path.
        assert_eq!(reg.armed_count(), 0);
        assert_eq!(reg.fire(fp::MIRROR_WRITE_SECONDARY), Outcome::Proceed);
    }

    #[test]
    fn times_n_fires_n_times() {
        let reg = FaultRegistry::new(1);
        reg.configure(fp::S3_PUT, FaultSpec::drop_op().times(3));
        let fires = (0..10).filter(|_| reg.fire(fp::S3_PUT) == Outcome::Drop).count();
        assert_eq!(fires, 3);
        assert_eq!(reg.armed_count(), 0);
    }

    #[test]
    fn prob_trigger_is_seeded_and_replayable() {
        let run = |seed: u64| -> Vec<bool> {
            let reg = FaultRegistry::new(seed);
            reg.configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).prob(0.3));
            (0..64).map(|_| reg.fire(fp::S3_GET).fired()).collect()
        };
        assert_eq!(run(42), run(42), "same seed must replay the same schedule");
        assert_ne!(run(42), run(43), "different seeds must diverge");
        let fired = run(42).iter().filter(|f| **f).count();
        assert!((5..=35).contains(&fired), "p=0.3 over 64 trials fired {fired}");
    }

    #[test]
    fn delay_sleeps_then_proceeds_and_logs() {
        let reg = FaultRegistry::new(1);
        reg.configure(fp::S3_GET, FaultSpec::delay_ms(5).once());
        let t0 = Instant::now();
        assert_eq!(reg.fire(fp::S3_GET), Outcome::Proceed);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
        let evs = reg.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].action, "delay");
        assert_eq!(evs[0].class, "-");
    }

    #[test]
    fn delay_hook_replaces_sleep_and_still_logs() {
        use std::sync::atomic::AtomicU64;
        let reg = FaultRegistry::new(1);
        let virt_ms = std::sync::Arc::new(AtomicU64::new(0));
        let sink = std::sync::Arc::clone(&virt_ms);
        reg.install_delay_hook(move |ms| {
            sink.fetch_add(ms, Ordering::Relaxed);
        });
        reg.configure(fp::S3_GET, FaultSpec::delay_ms(5_000));
        let t0 = Instant::now();
        for _ in 0..10 {
            assert_eq!(reg.fire(fp::S3_GET), Outcome::Proceed);
        }
        // 50 virtual seconds of injected latency, near-zero wall time.
        assert!(t0.elapsed() < std::time::Duration::from_millis(100));
        assert_eq!(virt_ms.load(Ordering::Relaxed), 50_000);
        // Served delays still count as injections in the event log.
        assert_eq!(reg.events().len(), 10);
        // Clearing the hook restores wall sleeps.
        reg.clear_delay_hook();
        reg.configure(fp::S3_GET, FaultSpec::delay_ms(5).once());
        let t1 = Instant::now();
        assert_eq!(reg.fire(fp::S3_GET), Outcome::Proceed);
        assert!(t1.elapsed() >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn clear_and_clear_all_disarm() {
        let reg = FaultRegistry::new(1);
        reg.configure(fp::S3_GET, FaultSpec::err(ErrClass::Fault));
        reg.configure(fp::S3_PUT, FaultSpec::drop_op());
        assert_eq!(reg.armed_count(), 2);
        reg.clear(fp::S3_GET);
        assert_eq!(reg.armed_count(), 1);
        assert_eq!(reg.fire(fp::S3_GET), Outcome::Proceed);
        assert_eq!(reg.fire(fp::S3_PUT), Outcome::Drop);
        reg.clear_all();
        assert_eq!(reg.armed_count(), 0);
        assert_eq!(reg.fire(fp::S3_PUT), Outcome::Proceed);
        // Stats survive disarming for post-mortems.
        let stats = reg.stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| !s.active));
    }

    #[test]
    fn rearm_resets_budget_but_keeps_counters() {
        let reg = FaultRegistry::new(1);
        reg.configure(fp::S3_GET, FaultSpec::err(ErrClass::Fault).once());
        let _ = reg.fire(fp::S3_GET);
        assert_eq!(reg.armed_count(), 0);
        reg.configure(fp::S3_GET, FaultSpec::err(ErrClass::Fault).once());
        assert_eq!(reg.armed_count(), 1);
        assert!(reg.fire(fp::S3_GET).fired());
        let st = &reg.stats()[0];
        assert_eq!(st.fires, 2, "counters accumulate across re-arms");
    }

    #[test]
    fn event_log_records_sequence_and_classes() {
        let reg = FaultRegistry::new(1);
        reg.configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).times(2));
        reg.configure(fp::S3_PUT, FaultSpec::drop_op().once());
        let _ = reg.fire(fp::S3_GET);
        let _ = reg.fire(fp::S3_PUT);
        let _ = reg.fire(fp::S3_GET);
        let evs = reg.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(evs[0].failpoint, fp::S3_GET);
        assert_eq!(evs[0].class, "throttle");
        assert_eq!(evs[1].action, "drop");
        assert_eq!(reg.injected_total(), 3);
        assert!(evs.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn dsl_parses_issue_example() {
        let cfg =
            parse_config("s3.get=err(throttle,p=0.2);mirror.write.secondary=err(once)").unwrap();
        assert_eq!(cfg.len(), 2);
        assert_eq!(cfg[0].0, "s3.get");
        assert_eq!(
            cfg[0].1,
            FaultSpec { action: FaultAction::Err(ErrClass::Throttle), trigger: Trigger::Prob(0.2) }
        );
        assert_eq!(cfg[1].0, "mirror.write.secondary");
        assert_eq!(
            cfg[1].1,
            FaultSpec { action: FaultAction::Err(ErrClass::Fault), trigger: Trigger::Times(1) }
        );
    }

    #[test]
    fn dsl_parses_all_action_shapes() {
        assert_eq!(
            parse_spec("err(notfound)").unwrap(),
            FaultSpec { action: FaultAction::Err(ErrClass::NotFound), trigger: Trigger::Always }
        );
        assert_eq!(
            parse_spec("delay(10,times=3)").unwrap(),
            FaultSpec { action: FaultAction::Delay(10), trigger: Trigger::Times(3) }
        );
        assert_eq!(
            parse_spec("drop(p=0.5)").unwrap(),
            FaultSpec { action: FaultAction::Drop, trigger: Trigger::Prob(0.5) }
        );
        assert_eq!(
            parse_spec("drop").unwrap(),
            FaultSpec { action: FaultAction::Drop, trigger: Trigger::Always }
        );
        assert_eq!(
            parse_spec("err(repl,times=2)").unwrap(),
            FaultSpec { action: FaultAction::Err(ErrClass::Repl), trigger: Trigger::Times(2) }
        );
    }

    #[test]
    fn dsl_rejects_malformed_entries() {
        assert!(parse_config("s3.get").is_err(), "missing =action");
        assert!(parse_config("=err(fault)").is_err(), "empty name");
        assert!(parse_spec("err(bogus)").is_err(), "unknown token");
        assert!(parse_spec("explode(now)").is_err(), "unknown action");
        assert!(parse_spec("err(throttle,p=1.5)").is_err(), "p out of range");
        assert!(parse_spec("err(throttle,times=x)").is_err(), "bad times");
        assert!(parse_spec("delay(once)").is_err(), "delay without ms");
        assert!(parse_spec("drop(throttle)").is_err(), "class on non-err");
        assert!(parse_spec("err(throttle").is_err(), "unbalanced paren");
        // Blank entries and whitespace are tolerated.
        let ok = parse_config(" ; s3.get = err( throttle , p=0.2 ) ; ").unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].0, "s3.get");
    }

    #[test]
    fn private_pcg32_matches_testkit_stream() {
        // Frozen first outputs of testkit's Pcg32::new(1, 0) — the two
        // implementations must never drift, or RSIM_SEED replays would
        // mean different things in different crates.
        let mut r = Pcg32::new(1, 0);
        let ours: Vec<u32> = (0..4).map(|_| r.step()).collect();
        assert_eq!(ours, vec![3_795_398_737, 17_903_413, 3_545_275_701, 194_195_274]);
    }

    #[test]
    fn times_zero_is_armed_noop() {
        let reg = FaultRegistry::new(1);
        reg.configure(fp::S3_GET, FaultSpec::err(ErrClass::Fault).times(0));
        assert_eq!(reg.armed_count(), 0);
        assert_eq!(reg.fire(fp::S3_GET), Outcome::Proceed);
    }
}
