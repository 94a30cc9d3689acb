//! Schedule synthesis: turn a [`WorkloadConfig`] into a deterministic,
//! time-ordered list of operations.
//!
//! Arrivals come from a non-homogeneous Poisson process generated by
//! thinning: candidate arrivals are drawn at the envelope rate
//! `max_rate()`, then accepted with probability `rate(t) / max_rate()`.
//! Burst windows are pre-drawn from their own RNG stream so the
//! acceptance rate at any instant is a pure function of time. Every
//! random draw comes from a stream forked off the config seed, so the
//! same config always yields the same bytes — `Schedule::to_bytes` is
//! the canonical form `tests::synthesis_is_deterministic_and_sorted`
//! compares.

use crate::config::{ClassConfig, QueryClass, WorkloadConfig};
use redsim_simkit::{SimRng, SimTime, Zipf};

/// One scheduled operation in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledOp {
    pub at: SimTime,
    pub tenant: u32,
    pub class: QueryClass,
    pub kind: OpKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Run `sql` on the tenant's session for this class.
    Query { sql: String },
    /// COPY `rows` rows from staged object `key` into `events`.
    Copy { key: String, rows: u32 },
}

/// Per-class operation counts (`Schedule::class_counts`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    pub queries: u64,
    pub copies: u64,
}

/// A synthesized, time-sorted operation list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    ops: Vec<ScheduledOp>,
    horizon: SimTime,
}

// RNG stream layout: each class owns a block of streams forked from the
// config seed, so adding a class (or a draw within one class) never
// perturbs another class's sequence.
const STREAMS_PER_CLASS: u64 = 4;
const STREAM_ARRIVAL: u64 = 0;
const STREAM_BURST: u64 = 1;
const STREAM_TENANT: u64 = 2;
const STREAM_TEMPLATE: u64 = 3;

impl Schedule {
    /// Synthesize the schedule for `cfg`. Deterministic: same config
    /// (including seed) in, byte-identical schedule out.
    pub fn synthesize(cfg: &WorkloadConfig) -> Schedule {
        let mut ops: Vec<ScheduledOp> = Vec::new();
        for (ci, class_cfg) in cfg.classes.iter().enumerate() {
            synth_class(cfg, class_cfg, ci as u64, &mut ops);
        }
        // Stable sort: ties keep class-declaration order, which is itself
        // deterministic, so the merged order is too.
        ops.sort_by_key(|op| op.at);
        Schedule { ops, horizon: cfg.horizon }
    }

    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Per-class (queries, copies) counts in `QueryClass::ALL` order.
    pub fn class_counts(&self) -> [(QueryClass, ClassCounts); 3] {
        let mut out = QueryClass::ALL.map(|c| (c, ClassCounts::default()));
        for op in &self.ops {
            let slot = &mut out.iter_mut().find(|(c, _)| *c == op.class).unwrap().1;
            match op.kind {
                OpKind::Query { .. } => slot.queries += 1,
                OpKind::Copy { .. } => slot.copies += 1,
            }
        }
        out
    }

    /// Canonical byte serialization: one tab-separated line per op.
    /// Byte equality here is the definition of "same schedule".
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.at.as_micros().to_string());
            out.push('\t');
            out.push_str(&op.tenant.to_string());
            out.push('\t');
            out.push_str(op.class.as_str());
            out.push('\t');
            match &op.kind {
                OpKind::Query { sql } => {
                    out.push_str("q\t");
                    out.push_str(sql);
                }
                OpKind::Copy { key, rows } => {
                    out.push_str("c\t");
                    out.push_str(key);
                    out.push('\t');
                    out.push_str(&rows.to_string());
                }
            }
            out.push('\n');
        }
        out.into_bytes()
    }

    /// FNV-1a digest of the canonical bytes — a cheap schedule identity
    /// for logs and test messages.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// All COPY objects to stage before running the schedule:
    /// `(key, rows)` pairs.
    pub fn copy_objects(&self) -> impl Iterator<Item = (&str, u32)> {
        self.ops.iter().filter_map(|op| match &op.kind {
            OpKind::Copy { key, rows } => Some((key.as_str(), *rows)),
            OpKind::Query { .. } => None,
        })
    }
}

/// Deterministic CSV body for a staged COPY object: `rows` lines of
/// `k,v` derived purely from the key, so synthesis and staging agree
/// without sharing RNG state. Keys stay in `0..50` to keep join/group
/// cardinalities stable as loads accumulate.
pub fn copy_object_body(key: &str, rows: u32) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut out = String::with_capacity(rows as usize * 8);
    for i in 0..rows as u64 {
        let k = (h.wrapping_add(i)) % 50;
        let v = h.wrapping_add(i.wrapping_mul(31)) % 100_000;
        out.push_str(&format!("{k},{v}\n"));
    }
    out
}

fn synth_class(cfg: &WorkloadConfig, class_cfg: &ClassConfig, ci: u64, ops: &mut Vec<ScheduledOp>) {
    let base_stream = ci * STREAMS_PER_CLASS;
    let mut arrival_rng = SimRng::new(cfg.seed, base_stream + STREAM_ARRIVAL);
    let mut burst_rng = SimRng::new(cfg.seed, base_stream + STREAM_BURST);
    let mut tenant_rng = SimRng::new(cfg.seed, base_stream + STREAM_TENANT);
    let mut template_rng = SimRng::new(cfg.seed, base_stream + STREAM_TEMPLATE);

    let horizon_h = cfg.horizon.as_hours_f64();
    let bursts = draw_burst_windows(&class_cfg.arrival.clone(), horizon_h, &mut burst_rng);

    let tenant_dist = Zipf::new(cfg.tenants as usize, cfg.tenant_skew);
    let pool_dist =
        (class_cfg.repeat_pool > 0).then(|| Zipf::new(class_cfg.repeat_pool, class_cfg.zipf_skew));

    let lam_max = class_cfg.arrival.max_rate();
    let mut unique_counter: u64 = 0;
    if lam_max > 0.0 {
        // Thinning: candidate gaps at the envelope rate, accept with
        // probability rate(t) / lam_max.
        let mut t_h = 0.0_f64;
        loop {
            t_h += arrival_rng.exponential(1.0 / lam_max);
            if t_h >= horizon_h {
                break;
            }
            let hour_of_day = (cfg.start_hour + t_h).rem_euclid(24.0);
            let mut rate = class_cfg.arrival.rate_at(hour_of_day);
            if bursts.iter().any(|&(s, e)| t_h >= s && t_h < e) {
                rate *= class_cfg.arrival.burst_mult;
            }
            if arrival_rng.next_f64() >= rate / lam_max {
                continue;
            }
            let at = SimTime::from_micros((t_h * 3_600_000_000.0) as u64);
            let tenant = tenant_rng.zipf(&tenant_dist) as u32;
            let sql = match &pool_dist {
                Some(dist) => {
                    let rank = template_rng.zipf(dist);
                    template_sql(class_cfg.class, rank as u64)
                }
                None => {
                    unique_counter += 1;
                    unique_sql(ci, unique_counter, &mut template_rng)
                }
            };
            ops.push(ScheduledOp { at, tenant, class: class_cfg.class, kind: OpKind::Query { sql } });
        }
    }

    // COPY cadence: fixed ticks, rotating tenants. Keys are fixed-width
    // so no staged key is a prefix of another (COPY matches by prefix).
    if let Some(every) = class_cfg.copy_every {
        if every.as_micros() > 0 && class_cfg.copy_rows > 0 {
            let mut k: u64 = 1;
            loop {
                let at = SimTime::from_micros(every.as_micros().saturating_mul(k));
                if at >= cfg.horizon {
                    break;
                }
                ops.push(ScheduledOp {
                    at,
                    tenant: (k % cfg.tenants as u64) as u32,
                    class: class_cfg.class,
                    kind: OpKind::Copy {
                        key: format!("wl/{}/{:06}", class_cfg.class.as_str(), k),
                        rows: class_cfg.copy_rows,
                    },
                });
                k += 1;
            }
        }
    }
}

/// Pre-draw `[start, end)` burst windows (in hours) over the horizon.
fn draw_burst_windows(
    arrival: &crate::config::ArrivalCurve,
    horizon_h: f64,
    rng: &mut SimRng,
) -> Vec<(f64, f64)> {
    let mut windows = Vec::new();
    if arrival.burst_per_hour <= 0.0 || arrival.burst_mult <= 1.0 {
        return windows;
    }
    let dur_h = arrival.burst_mins / 60.0;
    let mut t = 0.0_f64;
    loop {
        t += rng.exponential(1.0 / arrival.burst_per_hour);
        if t >= horizon_h {
            return windows;
        }
        windows.push((t, t + dur_h));
    }
}

/// Repeat-pool statement for `class` at Zipf rank `rank`. Text depends
/// only on (class, rank), so rank repeats are textual repeats — which is
/// what makes the result cache earn its keep under dashboard load.
pub fn template_sql(class: QueryClass, rank: u64) -> String {
    match class {
        QueryClass::Dashboard => match rank % 4 {
            0 => format!("SELECT COUNT(*) FROM events WHERE k < {}", 10 + rank),
            1 => format!(
                "SELECT k, COUNT(*) AS n FROM events GROUP BY k ORDER BY n DESC LIMIT {}",
                1 + rank % 10
            ),
            2 => format!("SELECT SUM(v) FROM events WHERE k = {}", rank % 50),
            _ => format!("SELECT MIN(v), MAX(v) FROM events WHERE k <> {}", rank % 50),
        },
        // ETL transforms: self-joins with a selective probe-side filter
        // (unfiltered, a 50-key self-join over `events` explodes
        // quadratically).
        QueryClass::Etl => match rank % 3 {
            0 => format!(
                "SELECT a.k, COUNT(*) AS n FROM events a JOIN events b ON a.k = b.k \
                 WHERE a.v < {} GROUP BY a.k ORDER BY n DESC LIMIT 10",
                400 + rank * 29
            ),
            1 => format!(
                "SELECT k, SUM(v) AS s FROM events WHERE v > {} GROUP BY k ORDER BY s DESC LIMIT 20",
                rank * 7
            ),
            _ => format!(
                "SELECT COUNT(*) FROM events a JOIN events b ON a.k = b.k WHERE b.v < {}",
                200 + rank * 13
            ),
        },
        // Ad hoc has no repeat pool; give it something sensible anyway.
        QueryClass::AdHoc => format!("SELECT COUNT(*) FROM events WHERE v <> {rank}"),
    }
}

/// Never-repeating ad-hoc statement: a fresh literal per call keeps the
/// normalized text (and thus every cache key) unique.
fn unique_sql(class_index: u64, counter: u64, rng: &mut SimRng) -> String {
    let lit = 10_000_000 + class_index * 1_000_000_000 + counter;
    match rng.gen_range(3) {
        0 => format!("SELECT COUNT(*) FROM events WHERE v <> {lit}"),
        1 => format!(
            "SELECT k, COUNT(*) AS n FROM events WHERE v > {lit} GROUP BY k ORDER BY n DESC LIMIT 7"
        ),
        _ => format!("SELECT MIN(v), MAX(v), SUM(v) FROM events WHERE v <> {lit}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use redsim_common::FxHashSet;

    #[test]
    fn synthesis_is_deterministic_and_sorted() {
        let cfg = WorkloadConfig::quick(64);
        let a = Schedule::synthesize(&cfg);
        let b = Schedule::synthesize(&cfg);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.digest(), b.digest());
        assert!(!a.is_empty());
        assert!(a.ops().windows(2).all(|w| w[0].at <= w[1].at), "ops sorted by time");
        assert!(a.ops().iter().all(|op| op.at < cfg.horizon));

        let c = Schedule::synthesize(&cfg.clone().with_seed(99));
        assert_ne!(a.to_bytes(), c.to_bytes(), "different seed, different schedule");
    }

    #[test]
    fn class_mix_matches_config() {
        let cfg = WorkloadConfig::quick(64);
        let s = Schedule::synthesize(&cfg);
        let counts = s.class_counts();
        // Dashboard rate is ~8x ad-hoc midpoint; expect strictly more.
        let dash = counts[0].1;
        let etl = counts[1].1;
        let adhoc = counts[2].1;
        assert!(dash.queries > adhoc.queries, "dashboard dominates: {counts:?}");
        assert!(etl.copies > 0, "ETL COPY cadence present");
        assert_eq!(dash.copies, 0);
        assert_eq!(adhoc.copies, 0);

        // Ad-hoc statements never repeat; dashboards do (pool < queries).
        let mut adhoc_texts = FxHashSet::default();
        let mut dash_texts = FxHashSet::default();
        for op in s.ops() {
            if let OpKind::Query { sql } = &op.kind {
                match op.class {
                    QueryClass::AdHoc => {
                        assert!(adhoc_texts.insert(sql.clone()), "ad-hoc repeat: {sql}");
                    }
                    QueryClass::Dashboard => {
                        dash_texts.insert(sql.clone());
                    }
                    QueryClass::Etl => {}
                }
            }
        }
        assert!(
            (dash_texts.len() as u64) < dash.queries,
            "dashboards repeat: {} distinct of {}",
            dash_texts.len(),
            dash.queries
        );
    }

    #[test]
    fn copy_objects_are_prefix_free_and_bodies_deterministic() {
        let cfg = WorkloadConfig::quick(8);
        let s = Schedule::synthesize(&cfg);
        let keys: Vec<&str> = s.copy_objects().map(|(k, _)| k).collect();
        assert!(!keys.is_empty());
        for a in &keys {
            for b in &keys {
                if a != b {
                    assert!(!b.starts_with(*a), "{a} is a prefix of {b}");
                }
            }
        }
        let body = copy_object_body(keys[0], 10);
        assert_eq!(body, copy_object_body(keys[0], 10));
        assert_eq!(body.lines().count(), 10);
        for line in body.lines() {
            let (k, v) = line.split_once(',').unwrap();
            assert!(k.parse::<u64>().unwrap() < 50);
            v.parse::<u64>().unwrap();
        }
    }
}
