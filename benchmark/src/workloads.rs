//! The four workloads: what is staged and loaded in set-up, what each
//! connection sends in the closed loop, and how each reply is checked.
//!
//! Names are permanent; later issues cite them. Why each exists is in
//! `benchmark/README.md` and, in one line, in `BENCHMARK.json`.

use crate::data::{
    answer_of, etl_body, stage_ddl, star_statements, Adhoc, AdhocStream, Answer, Cell, Dims,
    EtlBody, Events, Fact, Star, CUSTOMER_DDL, DASH_TEMPLATES, ETL_BODIES, ETL_BODY_ROWS,
    EVENTS_DDL, FACT_DDL, PART_DDL, SUPPLIER_DDL, TRICKLE_ROWS,
};
use crate::util::{fnv1a, Rng, ZipfDeck, FNV_OFFSET};
use redshift_sim::common::Result;
use redshift_sim::core::{Cluster, ClusterConfig};
use redshift_sim::frontdoor::WireRows;
use redshift_sim::workload::synth::template_sql;
use redshift_sim::workload::{QueryClass, WorkloadConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DashCached,
    AdhocScan,
    StarJoin,
    EtlLoad,
}

/// Rows of `fact` on `adhoc_scan`: large enough that no cache holds a
/// statement's working set and a scan is tens of milliseconds.
const ADHOC_FACT_ROWS: usize = 1_000_000;
/// Rows of `fact` on `star_join`: joins, not scans, are the subject, and
/// at this size a statement still leaves several hundred samples a run.
const STAR_FACT_ROWS: usize = 300_000;
/// COPYs per `etl_load` cycle, and how many the calibration table gets.
pub const ETL_COPIES_PER_CYCLE: usize = 20;
/// One in this many `adhoc_scan` replies is kept and checked.
const ADHOC_SAMPLE_EVERY: u64 = 20;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DashCached,
        Workload::AdhocScan,
        Workload::StarJoin,
        Workload::EtlLoad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DashCached => "dash_cached",
            Workload::AdhocScan => "adhoc_scan",
            Workload::StarJoin => "star_join",
            Workload::EtlLoad => "etl_load",
        }
    }

    /// One line for `BENCHMARK.json`; the long form is in the README.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DashCached => {
                "40 repeating dashboard panels beside a 1/s COPY: the working set fits the result cache, \
                 so front door, session and cache do the work and the engine runs only after invalidation"
            }
            Workload::AdhocScan => {
                "never-repeating scans of a 1M-row table in six families: every cache misses, \
                 so storage decode and engine filter/aggregate dominate"
            }
            Workload::StarJoin => {
                "24 fixed joins, plan cache hit, result cache off: hash join and exchange dominate \
                 (co-located, ALL, redistributed, 3-way); predicts no change from cache or filter work"
            }
            Workload::EtlLoad => {
                "CREATE, 20 COPYs, verify, DROP per connection, then crash and recover: the encode side of storage, \
                 loader, mirror, WAL and DDL exclusion; the engine does almost nothing"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The statement class the end-to-end latency and rate metrics are
    /// taken over: COPY on `etl_load`, SELECT elsewhere.
    pub fn primary_is_write(self) -> bool {
        self == Workload::EtlLoad
    }

    /// The WLM user group the connections present (the groups of
    /// `WorkloadConfig::wlm()`); dashboards have none and ride SQA.
    pub fn user_group(self) -> Option<&'static str> {
        match self {
            Workload::DashCached => QueryClass::Dashboard.user_group(),
            Workload::AdhocScan | Workload::StarJoin => QueryClass::AdHoc.user_group(),
            Workload::EtlLoad => QueryClass::Etl.user_group(),
        }
    }

    /// Result cache off for the session (`star_join` only).
    pub fn result_cache_off(self) -> bool {
        self == Workload::StarJoin
    }
}

/// The cluster every workload runs on: 2 nodes × 2 slices, the fleet's
/// WLM layout, everything else at its default.
pub fn cluster_config(name: &str) -> ClusterConfig {
    ClusterConfig::new(name)
        .nodes(2)
        .slices_per_node(2)
        .wlm(WorkloadConfig::fleet(1).wlm())
}

/// Everything generated from the seed for one workload.
#[derive(Debug)]
pub enum Inputs {
    Dash {
        events: Arc<Events>,
    },
    Adhoc {
        fact: Arc<Fact>,
    },
    Star {
        fact: Box<Fact>,
        dims: Box<Dims>,
        stmts: Arc<Vec<StarStmt>>,
    },
    Etl {
        bodies: Arc<Vec<EtlBody>>,
    },
}

#[derive(Debug)]
pub struct StarStmt {
    pub stmt: Star,
    pub sql: String,
    pub answer: Answer,
}

impl Inputs {
    /// `run_secs` sizes the dashboard's trickle: one object per second of
    /// warm-up and window, with slack.
    pub fn generate(w: Workload, seed: u64, run_secs: u64) -> Inputs {
        match w {
            Workload::DashCached => Inputs::Dash {
                events: Arc::new(Events::generate(seed, run_secs as usize + 8)),
            },
            Workload::AdhocScan => Inputs::Adhoc {
                fact: Arc::new(Fact::generate(seed, ADHOC_FACT_ROWS)),
            },
            Workload::StarJoin => {
                let fact = Fact::generate(seed, STAR_FACT_ROWS);
                let dims = Dims::generate(seed);
                let stmts = star_statements(seed, fact.d_max())
                    .into_iter()
                    .map(|stmt| StarStmt {
                        sql: stmt.sql(),
                        answer: stmt.answer(&fact, &dims),
                        stmt,
                    })
                    .collect();
                Inputs::Star {
                    fact: Box::new(fact),
                    dims: Box::new(dims),
                    stmts: Arc::new(stmts),
                }
            }
            Workload::EtlLoad => Inputs::Etl {
                bodies: Arc::new((0..ETL_BODIES).map(|b| etl_body(seed, b)).collect()),
            },
        }
    }

    /// The objects and statements of one set-up. Built outside the timed
    /// region: rendering CSV is the harness's work, not the program's.
    pub fn staging(&self) -> Staging {
        let mut st = Staging::default();
        match self {
            Inputs::Dash { events } => {
                st.load("events", EVENTS_DDL, "ev", vec![events.base_csv()]);
                for j in 0..events.trickle_objects() {
                    st.objects.push((trickle_key(j), events.trickle_csv(j)));
                }
            }
            Inputs::Adhoc { fact } => st.load("fact", FACT_DDL, "f", fact.csv_objects(100_000)),
            Inputs::Star { fact, dims, .. } => {
                st.load("fact", FACT_DDL, "f", fact.csv_objects(100_000));
                st.load("customer", CUSTOMER_DDL, "c", vec![dims.customer_csv()]);
                st.load("part", PART_DDL, "p", vec![dims.part_csv()]);
                st.load("supplier", SUPPLIER_DDL, "s", vec![dims.supplier_csv()]);
            }
            Inputs::Etl { bodies } => {
                // The calibration table: one full staging table, loaded the
                // way the window loads them, sized, checked and dropped.
                for (b, body) in bodies.iter().enumerate() {
                    st.objects.push((format!("etl/b{b}/x"), body.csv.clone()));
                }
                st.statements.push(stage_ddl("stage_cal"));
                let (mut rows, mut sum) = (0i64, 0i64);
                for c in 0..ETL_COPIES_PER_CYCLE {
                    let b = c % ETL_BODIES;
                    st.statements.push(etl_copy("stage_cal", b));
                    st.csv_bytes += bodies[b].csv.len() as u64;
                    rows += ETL_BODY_ROWS as i64;
                    sum += bodies[b].sum_v;
                }
                st.verify = Some((etl_verify("stage_cal"), etl_answer(rows, sum)));
                st.cleanup.push("DROP TABLE stage_cal".into());
            }
        }
        st
    }
}

fn trickle_key(j: usize) -> String {
    format!("tr/{j:04}/x")
}

fn etl_copy(table: &str, body: usize) -> String {
    format!("COPY {table} FROM 's3://etl/b{body}/'")
}

fn etl_verify(table: &str) -> String {
    format!("SELECT COUNT(*), SUM(v) FROM {table}")
}

fn etl_answer(rows: i64, sum: i64) -> Answer {
    vec![vec![
        Cell::I(rows as i128),
        if rows == 0 {
            Cell::Null
        } else {
            Cell::I(sum as i128)
        },
    ]]
}

#[derive(Debug, Default)]
pub struct Staging {
    pub objects: Vec<(String, Vec<u8>)>,
    /// DDL and COPY, in order.
    pub statements: Vec<String>,
    /// Bytes of CSV the COPY statements above load.
    pub csv_bytes: u64,
    /// A statement and its expected answer, run once the load is done.
    pub verify: Option<(String, Answer)>,
    /// Run after `stored_bytes` is read.
    pub cleanup: Vec<String>,
}

impl Staging {
    fn load(&mut self, table: &str, ddl: &str, prefix: &str, bodies: Vec<Vec<u8>>) {
        self.statements.push(ddl.to_string());
        self.statements
            .push(format!("COPY {table} FROM 's3://{prefix}/'"));
        for (n, body) in bodies.into_iter().enumerate() {
            self.csv_bytes += body.len() as u64;
            self.objects.push((format!("{prefix}/{n:03}"), body));
        }
    }
}

pub struct Loaded {
    pub cluster: Arc<Cluster>,
    pub csv_bytes: u64,
    /// CSV the harness put into the cluster's S3: not the program's own
    /// writes.
    pub staged_bytes: u64,
    /// `ReplicatedStore::local_bytes()` growth over the load.
    pub stored_bytes: u64,
    pub verified: bool,
}

/// One set-up: launch, stage, CREATE, COPY. This is the timed part of
/// `setup_s`.
pub fn load(name: &str, st: Staging) -> Result<Loaded> {
    let cluster = Cluster::launch(cluster_config(name))?;
    let stored = |c: &Cluster| c.replicated_store().map_or(0, |s| s.local_bytes());
    let before = stored(&cluster);
    let staged_bytes = st.objects.iter().map(|(_, b)| b.len() as u64).sum();
    for (key, body) in st.objects {
        cluster.put_s3_object(&key, body);
    }
    for sql in &st.statements {
        cluster.execute(sql)?;
    }
    let stored_bytes = stored(&cluster) - before;
    let verified = match &st.verify {
        Some((sql, want)) => answer_of(&cluster.query(sql)?.rows) == *want,
        None => true,
    };
    for sql in &st.cleanup {
        cluster.execute(sql)?;
    }
    Ok(Loaded {
        cluster,
        csv_bytes: st.csv_bytes,
        staged_bytes,
        stored_bytes,
        verified,
    })
}

// ----------------------------------------------------------------------
// The closed loop's statement sources
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    /// COPY of this many rows from this many bytes of CSV.
    Write {
        rows: u64,
        bytes: u64,
    },
    Ddl,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub sql: String,
    /// Statement family, for per-family layer metrics.
    pub family: &'static str,
    /// Same work under a different text (see `data::PriceLit`); replayed
    /// in-process so the replay misses the caches the original missed.
    pub twin: Option<String>,
}

/// A check owed after `crash()` → `recover()`.
#[derive(Debug)]
pub struct Durable {
    pub sql: String,
    pub want: Answer,
}

#[derive(Debug, Default)]
pub struct Finish {
    /// Replies kept during the run and checked now.
    pub checked: u64,
    pub wrong: u64,
    /// What must still be true of this connection's acked writes.
    pub durable: Vec<Durable>,
}

/// One connection's side of a workload.
pub trait Source: Send {
    /// The next statement; `elapsed` is time since the loop began.
    fn next(&mut self, elapsed: Duration) -> Op;
    /// The reply to the last statement `next` returned: rows for a
    /// read, nothing for an acked write. Returns whether it was right.
    fn reply(&mut self, op: &Op, rows: Option<&WireRows>) -> bool;
    /// The last statement failed for good.
    fn failed(&mut self, _op: &Op) {}
    fn finish(self: Box<Self>) -> Finish;
}

pub fn sources(inputs: &Inputs, seed: u64, conns: usize) -> Vec<Box<dyn Source>> {
    let shared = Arc::new(DashShared::default());
    (0..conns)
        .map(|conn| -> Box<dyn Source> {
            let rng = Rng::new(seed, 200 + conn as u64);
            match inputs {
                Inputs::Dash { events } => Box::new(DashSource {
                    events: Arc::clone(events),
                    shared: Arc::clone(&shared),
                    zipf: ZipfDeck::new(DASH_TEMPLATES, 1.1, 200),
                    rng,
                    writer: conn + 1 == conns,
                    lo: 0,
                    rank: 0,
                }),
                Inputs::Adhoc { fact } => Box::new(AdhocSource {
                    stream: AdhocStream::new(seed, conn as u32, conns as u32, fact.d_max()),
                    fact: Arc::clone(fact),
                    issued: 0,
                    // Which of every 20 is kept is itself seeded.
                    keep: Rng::new(seed, 300 + conn as u64).below(ADHOC_SAMPLE_EVERY),
                    current: None,
                    kept: Vec::new(),
                }),
                Inputs::Star { stmts, .. } => Box::new(StarSource {
                    stmts: Arc::clone(stmts),
                    rng,
                    order: Vec::new(),
                    current: 0,
                }),
                Inputs::Etl { bodies } => Box::new(EtlSource {
                    bodies: Arc::clone(bodies),
                    table: format!("stage_c{conn}"),
                    rng,
                    step: 0,
                    body: 0,
                    exists: false,
                    rows: 0,
                    sum: 0,
                }),
            }
        })
        .collect()
}

#[derive(Debug, Default)]
struct DashShared {
    /// Trickle COPYs sent / acked. A read that began after `acked = a`
    /// and ended before `started = s` must see one of the states `a..=s`.
    started: AtomicUsize,
    acked: AtomicUsize,
}

struct DashSource {
    events: Arc<Events>,
    shared: Arc<DashShared>,
    zipf: ZipfDeck,
    rng: Rng,
    /// The last connection also loads: one 1,000-row COPY per second.
    writer: bool,
    lo: usize,
    rank: u64,
}

impl Source for DashSource {
    fn next(&mut self, elapsed: Duration) -> Op {
        let sent = self.shared.started.load(Ordering::SeqCst);
        if self.writer && elapsed.as_secs() as usize > sent && sent < self.events.trickle_objects()
        {
            self.shared.started.store(sent + 1, Ordering::SeqCst);
            return Op {
                kind: Kind::Write {
                    rows: TRICKLE_ROWS as u64,
                    bytes: self.events.trickle_csv(sent).len() as u64,
                },
                sql: format!(
                    "COPY events FROM 's3://{}'",
                    trickle_key(sent).trim_end_matches('x')
                ),
                family: "trickle",
                twin: None,
            };
        }
        self.rank = self.zipf.draw(&mut self.rng) as u64;
        self.lo = self.shared.acked.load(Ordering::SeqCst);
        Op {
            kind: Kind::Read,
            sql: template_sql(QueryClass::Dashboard, self.rank),
            family: "dash",
            twin: None,
        }
    }

    fn reply(&mut self, _op: &Op, rows: Option<&WireRows>) -> bool {
        match rows {
            None => {
                self.shared.acked.fetch_add(1, Ordering::SeqCst);
                true
            }
            Some(r) => {
                let hi = self.shared.started.load(Ordering::SeqCst);
                let got = answer_of(&r.rows);
                (self.lo..=hi).any(|state| self.events.answer(self.rank, state) == got)
            }
        }
    }

    fn finish(self: Box<Self>) -> Finish {
        let mut f = Finish::default();
        if self.writer {
            // A failed COPY leaves `acked` behind `started`; the durable
            // claim is about acked rows only, and every trickle object has
            // the same row count, so the count pins it down either way.
            let acked = self.shared.acked.load(Ordering::SeqCst);
            if acked == self.shared.started.load(Ordering::SeqCst) {
                f.durable.push(Durable {
                    sql: "SELECT COUNT(*) FROM events".into(),
                    want: vec![vec![Cell::I(self.events.rows_after(acked) as i128)]],
                });
            }
        }
        f
    }
}

struct AdhocSource {
    stream: AdhocStream,
    fact: Arc<Fact>,
    issued: u64,
    keep: u64,
    current: Option<Adhoc>,
    kept: Vec<(Adhoc, Answer)>,
}

impl Source for AdhocSource {
    fn next(&mut self, _elapsed: Duration) -> Op {
        let q = self.stream.next().expect("the stream is endless");
        let op = Op {
            kind: Kind::Read,
            sql: q.sql(),
            family: q.family(),
            twin: Some(q.twin().sql()),
        };
        self.current = (self.issued % ADHOC_SAMPLE_EVERY == self.keep).then_some(q);
        self.issued += 1;
        op
    }

    fn reply(&mut self, _op: &Op, rows: Option<&WireRows>) -> bool {
        // Checked after the window: the model scans a million rows per
        // statement, which must not run on the thread that is timing.
        if let (Some(q), Some(r)) = (self.current.take(), rows) {
            self.kept.push((q, answer_of(&r.rows)));
        }
        true
    }

    fn finish(self: Box<Self>) -> Finish {
        let mut f = Finish::default();
        for (q, mut got) in self.kept {
            let mut want = q.answer(&self.fact);
            if !q.ordered() {
                let key = |row: &Vec<Cell>| format!("{row:?}");
                got.sort_by_key(key);
                want.sort_by_key(key);
            }
            f.checked += 1;
            f.wrong += (got != want) as u64;
        }
        f
    }
}

struct StarSource {
    stmts: Arc<Vec<StarStmt>>,
    rng: Rng,
    /// The rest of the current pass over the 24 statements.
    order: Vec<usize>,
    current: usize,
}

impl Source for StarSource {
    fn next(&mut self, _elapsed: Duration) -> Op {
        if self.order.is_empty() {
            self.order = (0..self.stmts.len()).collect();
            self.rng.shuffle(&mut self.order);
        }
        self.current = self.order.pop().expect("order was just refilled");
        let s = &self.stmts[self.current];
        Op {
            kind: Kind::Read,
            sql: s.sql.clone(),
            family: s.stmt.family(),
            twin: None,
        }
    }

    fn reply(&mut self, _op: &Op, rows: Option<&WireRows>) -> bool {
        rows.is_some_and(|r| answer_of(&r.rows) == self.stmts[self.current].answer)
    }

    fn finish(self: Box<Self>) -> Finish {
        Finish::default()
    }
}

struct EtlSource {
    bodies: Arc<Vec<EtlBody>>,
    table: String,
    rng: Rng,
    /// Position in the cycle: 0 CREATE, 1..=20 COPY, 21 verify, 22 DROP.
    step: usize,
    body: usize,
    exists: bool,
    /// Acked rows in the live table and the sum of their `v`.
    rows: i64,
    sum: i64,
}

impl Source for EtlSource {
    fn next(&mut self, _elapsed: Duration) -> Op {
        let step = self.step;
        self.step = (self.step + 1) % (ETL_COPIES_PER_CYCLE + 3);
        let (kind, sql, family) = match step {
            0 => (Kind::Ddl, stage_ddl(&self.table), "create"),
            s if s <= ETL_COPIES_PER_CYCLE => {
                self.body = self.rng.below(ETL_BODIES as u64) as usize;
                let bytes = self.bodies[self.body].csv.len() as u64;
                (
                    Kind::Write {
                        rows: ETL_BODY_ROWS as u64,
                        bytes,
                    },
                    etl_copy(&self.table, self.body),
                    "copy",
                )
            }
            s if s == ETL_COPIES_PER_CYCLE + 1 => (Kind::Read, etl_verify(&self.table), "verify"),
            _ => (Kind::Ddl, format!("DROP TABLE {}", self.table), "drop"),
        };
        Op {
            kind,
            sql,
            family,
            twin: None,
        }
    }

    fn reply(&mut self, op: &Op, rows: Option<&WireRows>) -> bool {
        match (op.kind, op.family) {
            (Kind::Ddl, "create") => self.exists = true,
            (Kind::Ddl, _) => {
                self.exists = false;
                (self.rows, self.sum) = (0, 0);
            }
            (Kind::Write { rows, .. }, _) => {
                self.rows += rows as i64;
                self.sum += self.bodies[self.body].sum_v;
            }
            // A COUNT on a connection is never older than that
            // connection's last acked COPY: the model holds exactly the
            // acked ones.
            (Kind::Read, _) => {
                return rows.is_some_and(|r| answer_of(&r.rows) == etl_answer(self.rows, self.sum))
            }
        }
        true
    }

    fn finish(self: Box<Self>) -> Finish {
        let mut f = Finish::default();
        if self.exists {
            f.durable.push(Durable {
                sql: etl_verify(&self.table),
                want: etl_answer(self.rows, self.sum),
            });
        }
        f
    }
}

/// FNV-1a over the first `n` statements of every connection: the
/// identity of a seeded schedule, printed with every run. (The
/// dashboard's trickle is paced by the wall clock and takes no part.)
pub fn schedule_digest(inputs: &Inputs, seed: u64, conns: usize, n: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for mut s in sources(inputs, seed, conns) {
        for _ in 0..n {
            h = fnv1a(h, s.next(Duration::ZERO).sql.as_bytes());
            h = fnv1a(h, b"\n");
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_a_different_seed_differs() {
        for w in Workload::ALL {
            let digest = |seed| schedule_digest(&Inputs::generate(w, seed, 0), seed, 2, 100);
            assert_eq!(digest(1), digest(1), "{}", w.name());
            assert_ne!(digest(1), digest(2), "{}", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn etl_cycle_is_create_twenty_copies_verify_drop() {
        let inputs = Inputs::generate(Workload::EtlLoad, 1, 0);
        let mut s = sources(&inputs, 1, 2).pop().unwrap();
        let kinds: Vec<Kind> = (0..ETL_COPIES_PER_CYCLE + 3)
            .map(|_| {
                let op = s.next(Duration::ZERO);
                if op.kind != Kind::Read {
                    assert!(s.reply(&op, None));
                }
                op.kind
            })
            .collect();
        assert_eq!(kinds[0], Kind::Ddl);
        assert!(kinds[1..=ETL_COPIES_PER_CYCLE]
            .iter()
            .all(|k| matches!(k, Kind::Write { rows, .. } if *rows == ETL_BODY_ROWS as u64)));
        assert_eq!(kinds[ETL_COPIES_PER_CYCLE + 1], Kind::Read);
        assert_eq!(kinds[ETL_COPIES_PER_CYCLE + 2], Kind::Ddl);
        assert!(s.finish().durable.is_empty(), "the table was dropped");
    }
}
