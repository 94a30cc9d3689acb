//! Seeded inputs and the reference model.
//!
//! Everything the program sees — CSV objects and SQL text — is generated
//! here from `--seed`. The expected answers are computed here too, in
//! plain Rust over the generated rows, without calling any engine,
//! expression or storage code of the program: the model has to survive
//! rewrites of those layers.

use crate::util::Rng;
use redshift_sim::common::{Row, Value};
use std::collections::BTreeMap;
use std::fmt::Write;

/// One result cell in a form both sides can be brought to.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Null,
    I(i128),
    F(f64),
    S(String),
}

pub type Answer = Vec<Vec<Cell>>;

pub fn cell_of(v: &Value) -> Cell {
    match v {
        Value::Null => Cell::Null,
        Value::Bool(b) => Cell::I(*b as i128),
        Value::Int2(x) => Cell::I(*x as i128),
        Value::Int4(x) => Cell::I(*x as i128),
        Value::Int8(x) => Cell::I(*x as i128),
        Value::Date(x) => Cell::I(*x as i128),
        Value::Timestamp(x) => Cell::I(*x as i128),
        Value::Float8(x) => Cell::F(*x),
        Value::Str(s) => Cell::S(s.clone()),
        Value::Decimal { units, scale: 0 } => Cell::I(*units),
        Value::Decimal { units, scale } => Cell::F(*units as f64 / 10f64.powi(*scale as i32)),
    }
}

pub fn answer_of(rows: &[Row]) -> Answer {
    rows.iter()
        .map(|r| r.values().iter().map(cell_of).collect())
        .collect()
}

fn i(x: impl Into<i128>) -> Cell {
    Cell::I(x.into())
}

// ----------------------------------------------------------------------
// fact and its dimensions (adhoc_scan, star_join)
// ----------------------------------------------------------------------

pub const FACT_DDL: &str = "CREATE TABLE fact (d BIGINT, cust BIGINT, pid BIGINT, sid BIGINT, \
     qty BIGINT, price FLOAT8, note VARCHAR(24)) DISTKEY(cust) COMPOUND SORTKEY(d)";
pub const CUSTOMER_DDL: &str =
    "CREATE TABLE customer (c_id BIGINT, c_region VARCHAR(8), c_tier BIGINT) DISTKEY(c_id)";
pub const PART_DDL: &str =
    "CREATE TABLE part (p_id BIGINT, p_cat VARCHAR(8), p_size BIGINT) DISTSTYLE ALL";
pub const SUPPLIER_DDL: &str =
    "CREATE TABLE supplier (s_id BIGINT, s_nation BIGINT) DISTSTYLE EVEN";

pub const N_CUSTOMER: usize = 5_000;
pub const N_PART: usize = 2_000;
pub const N_SUPPLIER: usize = 500;
/// Rows sharing one value of the sort key `d`.
pub const ROWS_PER_D: u32 = 10;

const COLORS: [&str; 8] = [
    "red", "blue", "green", "amber", "black", "white", "cyan", "pink",
];
const REGIONS: [&str; 5] = ["na", "eu", "apac", "latam", "mea"];
const CATS: [&str; 8] = ["bolt", "nut", "gear", "cam", "rod", "pin", "cog", "hub"];

/// The fact table, kept in narrow columns so the harness's own memory
/// stays small beside the program's (`peak_rss_mb` covers both).
#[derive(Debug)]
pub struct Fact {
    pub d: Vec<u32>,
    pub cust: Vec<u16>,
    pub pid: Vec<u16>,
    pub sid: Vec<u16>,
    pub qty: Vec<u8>,
    pub cents: Vec<u32>,
    pub color: Vec<u8>,
    pub num: Vec<u16>,
}

impl Fact {
    pub fn generate(seed: u64, rows: usize) -> Fact {
        let mut rng = Rng::new(seed, 1);
        let mut f = Fact {
            d: Vec::with_capacity(rows),
            cust: Vec::with_capacity(rows),
            pid: Vec::with_capacity(rows),
            sid: Vec::with_capacity(rows),
            qty: Vec::with_capacity(rows),
            cents: Vec::with_capacity(rows),
            color: Vec::with_capacity(rows),
            num: Vec::with_capacity(rows),
        };
        for r in 0..rows {
            f.d.push(r as u32 / ROWS_PER_D);
            f.cust.push(rng.below(N_CUSTOMER as u64) as u16);
            f.pid.push(rng.below(N_PART as u64) as u16);
            f.sid.push(rng.below(N_SUPPLIER as u64) as u16);
            f.qty.push(rng.below(100) as u8);
            f.cents.push(rng.below(100_000) as u32);
            f.color.push(rng.below(COLORS.len() as u64) as u8);
            f.num.push(rng.below(1_000) as u16);
        }
        f
    }

    pub fn len(&self) -> usize {
        self.d.len()
    }

    /// Largest value of `d`.
    pub fn d_max(&self) -> u32 {
        self.d.last().copied().unwrap_or(0)
    }

    /// `cents / 100` is the correctly rounded double of the decimal text
    /// in the CSV, which is also what parsing that text yields.
    pub fn price(&self, r: usize) -> f64 {
        self.cents[r] as f64 / 100.0
    }

    pub fn note(&self, r: usize) -> String {
        format!("{}-{:03}", COLORS[self.color[r] as usize], self.num[r])
    }

    /// CSV bodies of `per_object` rows, in row order.
    pub fn csv_objects(&self, per_object: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut body = String::new();
        for r in 0..self.len() {
            let c = self.cents[r];
            let _ = writeln!(
                body,
                "{},{},{},{},{},{}.{:02},{}-{:03}",
                self.d[r],
                self.cust[r],
                self.pid[r],
                self.sid[r],
                self.qty[r],
                c / 100,
                c % 100,
                COLORS[self.color[r] as usize],
                self.num[r]
            );
            if (r + 1) % per_object == 0 || r + 1 == self.len() {
                out.push(std::mem::take(&mut body).into_bytes());
            }
        }
        out
    }
}

#[derive(Debug)]
pub struct Dims {
    pub c_region: Vec<u8>,
    pub c_tier: Vec<u8>,
    pub p_cat: Vec<u8>,
    pub p_size: Vec<u8>,
    pub s_nation: Vec<u8>,
}

impl Dims {
    pub fn generate(seed: u64) -> Dims {
        let mut rng = Rng::new(seed, 2);
        let mut col = |n: usize, card: u64| (0..n).map(|_| rng.below(card) as u8).collect();
        Dims {
            c_region: col(N_CUSTOMER, REGIONS.len() as u64),
            c_tier: col(N_CUSTOMER, 4),
            p_cat: col(N_PART, CATS.len() as u64),
            p_size: col(N_PART, 50),
            s_nation: col(N_SUPPLIER, 25),
        }
    }

    pub fn customer_csv(&self) -> Vec<u8> {
        let mut s = String::new();
        for id in 0..N_CUSTOMER {
            let _ = writeln!(
                s,
                "{id},{},{}",
                REGIONS[self.c_region[id] as usize], self.c_tier[id]
            );
        }
        s.into_bytes()
    }

    pub fn part_csv(&self) -> Vec<u8> {
        let mut s = String::new();
        for id in 0..N_PART {
            let _ = writeln!(
                s,
                "{id},{},{}",
                CATS[self.p_cat[id] as usize], self.p_size[id]
            );
        }
        s.into_bytes()
    }

    pub fn supplier_csv(&self) -> Vec<u8> {
        let mut s = String::new();
        for id in 0..N_SUPPLIER {
            let _ = writeln!(s, "{id},{}", self.s_nation[id]);
        }
        s.into_bytes()
    }
}

/// A FLOAT8 literal with seven decimals whose sub-cent digits are never
/// zero: no generated price equals it, and any two literals with the
/// same cents select the same rows — which is what makes statement text
/// unique without changing the work, and lets a replayed statement use
/// a *twin* text that misses every cache exactly as the original did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriceLit {
    pub cents: u32,
    pub tail: u32,
}

impl PriceLit {
    pub fn text(self) -> String {
        format!(
            "{}.{:02}{:05}",
            self.cents / 100,
            self.cents % 100,
            self.tail
        )
    }

    fn value(self) -> f64 {
        self.text()
            .parse()
            .expect("generated literal is a decimal number")
    }

    fn twin(self) -> PriceLit {
        PriceLit {
            cents: self.cents,
            tail: self.tail + 1,
        }
    }
}

/// One never-repeating statement over `fact`.
#[derive(Debug, Clone, PartialEq)]
pub enum Adhoc {
    RangeCount { lo: u32, hi: u32 },
    ScanGroupby { q: u8, p: PriceLit },
    LikeCount { color: u8, dd: u8, p: PriceLit },
    MinMax { pid: u16, p: PriceLit },
    ArithFilter { q: u8, p: PriceLit },
    Extract { lo: u32 },
}

/// Families in ledger order; `engine.exec_ms.<family>` uses these names.
pub const ADHOC_FAMILIES: [&str; 6] = [
    "range_count",
    "scan_groupby",
    "like_count",
    "minmax",
    "arith_filter",
    "extract",
];
pub const STAR_FAMILIES: [&str; 4] = ["colocated", "dim_all", "redistribute", "three_way"];
/// `d` values an `extract` statement covers (× `ROWS_PER_D` rows).
pub const EXTRACT_SPAN: u32 = 1_000;

impl Adhoc {
    pub fn family(&self) -> &'static str {
        ADHOC_FAMILIES[match self {
            Adhoc::RangeCount { .. } => 0,
            Adhoc::ScanGroupby { .. } => 1,
            Adhoc::LikeCount { .. } => 2,
            Adhoc::MinMax { .. } => 3,
            Adhoc::ArithFilter { .. } => 4,
            Adhoc::Extract { .. } => 5,
        }]
    }

    pub fn sql(&self) -> String {
        match self {
            Adhoc::RangeCount { lo, hi } => {
                format!("SELECT COUNT(*) FROM fact WHERE d BETWEEN {lo} AND {hi}")
            }
            Adhoc::ScanGroupby { q, p } => format!(
                "SELECT cust, COUNT(*) AS n, SUM(qty) AS s FROM fact WHERE qty < {q} AND price < {} \
                 GROUP BY cust ORDER BY n DESC, cust LIMIT 10",
                p.text()
            ),
            Adhoc::LikeCount { color, dd, p } => format!(
                "SELECT COUNT(*) FROM fact WHERE note LIKE '{}-{dd:02}%' AND price < {}",
                COLORS[*color as usize],
                p.text()
            ),
            Adhoc::MinMax { pid, p } => format!(
                "SELECT MIN(price), MAX(price), MIN(qty), MAX(qty) FROM fact \
                 WHERE pid <> {pid} AND price < {}",
                p.text()
            ),
            Adhoc::ArithFilter { q, p } => format!(
                "SELECT COUNT(*), SUM(qty) FROM fact WHERE qty + 0 < {q} AND price < {}",
                p.text()
            ),
            Adhoc::Extract { lo } => format!(
                "SELECT d, cust, qty, price FROM fact WHERE d BETWEEN {lo} AND {}",
                lo + EXTRACT_SPAN - 1
            ),
        }
    }

    /// A different text doing the same work (see [`PriceLit`]); range
    /// statements shift by one sort-key value.
    pub fn twin(&self) -> Adhoc {
        match self.clone() {
            Adhoc::RangeCount { lo, hi } => Adhoc::RangeCount {
                lo: lo + 1,
                hi: hi + 1,
            },
            Adhoc::ScanGroupby { q, p } => Adhoc::ScanGroupby { q, p: p.twin() },
            Adhoc::LikeCount { color, dd, p } => Adhoc::LikeCount {
                color,
                dd,
                p: p.twin(),
            },
            Adhoc::MinMax { pid, p } => Adhoc::MinMax { pid, p: p.twin() },
            Adhoc::ArithFilter { q, p } => Adhoc::ArithFilter { q, p: p.twin() },
            Adhoc::Extract { lo } => Adhoc::Extract { lo: lo + 1 },
        }
    }

    /// The model's answer. Row order matters only where the statement
    /// has an ORDER BY; `extract` has none and is compared sorted.
    pub fn answer(&self, f: &Fact) -> Answer {
        match self {
            Adhoc::RangeCount { lo, hi } => {
                let n = f.d.iter().filter(|d| (*lo..=*hi).contains(d)).count();
                vec![vec![i(n as i64)]]
            }
            Adhoc::ScanGroupby { q, p } => {
                let p = p.value();
                let mut groups: BTreeMap<u16, (i64, i64)> = BTreeMap::new();
                for r in 0..f.len() {
                    if f.qty[r] < *q && f.price(r) < p {
                        let g = groups.entry(f.cust[r]).or_default();
                        g.0 += 1;
                        g.1 += f.qty[r] as i64;
                    }
                }
                let mut rows: Vec<(u16, i64, i64)> =
                    groups.into_iter().map(|(k, (n, s))| (k, n, s)).collect();
                rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                rows.truncate(10);
                rows.into_iter()
                    .map(|(k, n, s)| vec![i(k), i(n), i(s)])
                    .collect()
            }
            Adhoc::LikeCount { color, dd, p } => {
                let p = p.value();
                let n = (0..f.len())
                    .filter(|&r| {
                        f.color[r] == *color && f.num[r] / 10 == *dd as u16 && f.price(r) < p
                    })
                    .count();
                vec![vec![i(n as i64)]]
            }
            Adhoc::MinMax { pid, p } => {
                let p = p.value();
                let mut acc: Option<(f64, f64, u8, u8)> = None;
                for r in 0..f.len() {
                    let price = f.price(r);
                    if f.pid[r] != *pid && price < p {
                        let a = acc.get_or_insert((price, price, f.qty[r], f.qty[r]));
                        a.0 = a.0.min(price);
                        a.1 = a.1.max(price);
                        a.2 = a.2.min(f.qty[r]);
                        a.3 = a.3.max(f.qty[r]);
                    }
                }
                match acc {
                    Some((lo, hi, qlo, qhi)) => {
                        vec![vec![Cell::F(lo), Cell::F(hi), i(qlo), i(qhi)]]
                    }
                    None => vec![vec![Cell::Null; 4]],
                }
            }
            Adhoc::ArithFilter { q, p } => {
                let p = p.value();
                let (mut n, mut s) = (0i64, 0i64);
                for r in 0..f.len() {
                    if f.qty[r] < *q && f.price(r) < p {
                        n += 1;
                        s += f.qty[r] as i64;
                    }
                }
                vec![vec![i(n), if n == 0 { Cell::Null } else { i(s) }]]
            }
            Adhoc::Extract { lo } => (0..f.len())
                .filter(|&r| (*lo..lo + EXTRACT_SPAN).contains(&f.d[r]))
                .map(|r| vec![i(f.d[r]), i(f.cust[r]), i(f.qty[r]), Cell::F(f.price(r))])
                .collect(),
        }
    }

    pub fn ordered(&self) -> bool {
        !matches!(self, Adhoc::Extract { .. })
    }
}

/// The never-repeating statement stream of one connection. Families
/// come in shuffled blocks of six, so every run has the same mix;
/// selectivities are fixed and only positions vary, so cost per family
/// does not depend on the seed.
#[derive(Debug)]
pub struct AdhocStream {
    rng: Rng,
    conn: u32,
    conns: u32,
    d_max: u32,
    block: Vec<usize>,
    issued: u32,
    seen: std::collections::HashSet<(u32, u32)>,
}

impl AdhocStream {
    pub fn new(seed: u64, conn: u32, conns: u32, d_max: u32) -> AdhocStream {
        AdhocStream {
            rng: Rng::new(seed, 100 + conn as u64),
            conn,
            conns,
            d_max,
            block: Vec::new(),
            issued: 0,
            seen: Default::default(),
        }
    }

    fn price(&mut self, lo_cents: u32, hi_cents: u32) -> PriceLit {
        // Odd tails for statements, even for their twins; the tail also
        // carries the connection, so two connections never share a text.
        let k = (self.issued * self.conns + self.conn) % 49_999;
        let cents = lo_cents + self.rng.below((hi_cents - lo_cents) as u64) as u32;
        PriceLit {
            cents,
            tail: 2 * k + 1,
        }
    }

    /// A `(lo, width)` this connection has not used. `lo` is even (a
    /// twin shifts by one, so twins are odd and never meet a statement)
    /// and the width's residue modulo the connection count is the
    /// connection, so ranges are unique across connections as well.
    fn range(&mut self, width: u32, jitter: u32) -> (u32, u32) {
        loop {
            let w = width + self.rng.below(jitter as u64) as u32 * self.conns + self.conn;
            let lo = 2 * self.rng.below(((self.d_max - w) / 2) as u64) as u32;
            if self.seen.insert((lo, w)) {
                return (lo, w);
            }
        }
    }

    /// An `extract` start this connection has not used. The text shows
    /// no width, so here `lo / 2` carries the connection.
    fn extract_lo(&mut self) -> u32 {
        loop {
            let slots = (self.d_max - EXTRACT_SPAN) / (2 * self.conns);
            let lo = 2 * (self.rng.below(slots as u64) as u32 * self.conns + self.conn);
            if self.seen.insert((lo, 0)) {
                return lo;
            }
        }
    }
}

impl Iterator for AdhocStream {
    type Item = Adhoc;

    fn next(&mut self) -> Option<Adhoc> {
        if self.block.is_empty() {
            self.block = (0..ADHOC_FAMILIES.len()).collect();
            self.rng.shuffle(&mut self.block);
        }
        let family = self.block.pop().expect("block was just refilled");
        self.issued += 1;
        Some(match family {
            0 => {
                // 2% of the sort-key domain: zone maps prune the rest.
                let (lo, w) = self.range(self.d_max / 50, 64);
                Adhoc::RangeCount { lo, hi: lo + w }
            }
            1 => Adhoc::ScanGroupby {
                q: 40 + self.rng.below(20) as u8,
                p: self.price(40_000, 60_000),
            },
            2 => Adhoc::LikeCount {
                color: self.rng.below(COLORS.len() as u64) as u8,
                dd: self.rng.below(100) as u8,
                p: self.price(90_000, 100_000),
            },
            3 => Adhoc::MinMax {
                pid: self.rng.below(N_PART as u64) as u16,
                p: self.price(50_000, 100_000),
            },
            4 => Adhoc::ArithFilter {
                q: 40 + self.rng.below(20) as u8,
                p: self.price(40_000, 60_000),
            },
            _ => Adhoc::Extract {
                lo: self.extract_lo(),
            },
        })
    }
}

/// One of the 24 fixed join statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Star {
    Colocated { tier: u8, q: u8 },
    DimAll { size: u8, q: u8 },
    Redistribute { nation: u8, q: u8 },
    ThreeWay { lo: u32, hi: u32, tier: u8 },
}

impl Star {
    pub fn family(&self) -> &'static str {
        STAR_FAMILIES[match self {
            Star::Colocated { .. } => 0,
            Star::DimAll { .. } => 1,
            Star::Redistribute { .. } => 2,
            Star::ThreeWay { .. } => 3,
        }]
    }

    pub fn sql(&self) -> String {
        match self {
            Star::Colocated { tier, q } => format!(
                "SELECT c_region, COUNT(*) AS n, SUM(qty) AS s FROM fact JOIN customer ON cust = c_id \
                 WHERE c_tier = {tier} AND qty < {q} GROUP BY c_region ORDER BY c_region"
            ),
            Star::DimAll { size, q } => format!(
                "SELECT p_cat, COUNT(*) AS n, SUM(qty) AS s FROM fact JOIN part ON pid = p_id \
                 WHERE p_size < {size} AND qty < {q} GROUP BY p_cat ORDER BY p_cat"
            ),
            Star::Redistribute { nation, q } => format!(
                "SELECT s_nation, COUNT(*) AS n, SUM(qty) AS s FROM fact JOIN supplier ON sid = s_id \
                 WHERE s_nation < {nation} AND qty < {q} GROUP BY s_nation ORDER BY s_nation"
            ),
            Star::ThreeWay { lo, hi, tier } => format!(
                "SELECT c_region, p_cat, COUNT(*) AS n, SUM(qty) AS s FROM fact \
                 JOIN customer ON cust = c_id JOIN part ON pid = p_id \
                 WHERE d BETWEEN {lo} AND {hi} AND c_tier = {tier} \
                 GROUP BY c_region, p_cat ORDER BY n DESC, c_region, p_cat LIMIT 10"
            ),
        }
    }

    pub fn answer(&self, f: &Fact, dims: &Dims) -> Answer {
        // group key -> (count, sum of qty)
        let mut groups: BTreeMap<(String, String), (i64, i64)> = BTreeMap::new();
        let mut add = |key: (String, String), qty: u8| {
            let g = groups.entry(key).or_default();
            g.0 += 1;
            g.1 += qty as i64;
        };
        for r in 0..f.len() {
            let (c, p, s) = (f.cust[r] as usize, f.pid[r] as usize, f.sid[r] as usize);
            match self {
                Star::Colocated { tier, q } => {
                    if dims.c_tier[c] == *tier && f.qty[r] < *q {
                        add(
                            (REGIONS[dims.c_region[c] as usize].into(), String::new()),
                            f.qty[r],
                        );
                    }
                }
                Star::DimAll { size, q } => {
                    if dims.p_size[p] < *size && f.qty[r] < *q {
                        add(
                            (CATS[dims.p_cat[p] as usize].into(), String::new()),
                            f.qty[r],
                        );
                    }
                }
                Star::Redistribute { nation, q } => {
                    if dims.s_nation[s] < *nation && f.qty[r] < *q {
                        // Two digits so the map's order is numeric order.
                        add(
                            (format!("{:02}", dims.s_nation[s]), String::new()),
                            f.qty[r],
                        );
                    }
                }
                Star::ThreeWay { lo, hi, tier } => {
                    if (*lo..=*hi).contains(&f.d[r]) && dims.c_tier[c] == *tier {
                        add(
                            (
                                REGIONS[dims.c_region[c] as usize].into(),
                                CATS[dims.p_cat[p] as usize].into(),
                            ),
                            f.qty[r],
                        );
                    }
                }
            }
        }
        let mut rows: Vec<((String, String), (i64, i64))> = groups.into_iter().collect();
        match self {
            Star::Redistribute { .. } => rows
                .into_iter()
                .map(|((k, _), (n, s))| vec![i(k.parse::<i64>().expect("two digits")), i(n), i(s)])
                .collect(),
            Star::ThreeWay { .. } => {
                rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
                rows.truncate(10);
                rows.into_iter()
                    .map(|((a, b), (n, s))| vec![Cell::S(a), Cell::S(b), i(n), i(s)])
                    .collect()
            }
            _ => rows
                .into_iter()
                .map(|((k, _), (n, s))| vec![Cell::S(k), i(n), i(s)])
                .collect(),
        }
    }
}

/// The 24 statements: six per family, literals from the seed, all
/// distinct. Literals move within narrow bands, so selectivity — and
/// with it the work of a pass over the 24 — barely depends on the seed.
pub fn star_statements(seed: u64, d_max: u32) -> Vec<Star> {
    let mut rng = Rng::new(seed, 3);
    let mut out: Vec<Star> = Vec::new();
    while out.len() < 24 {
        let q = 70 + rng.below(10) as u8;
        let s = match out.len() / 6 {
            0 => Star::Colocated {
                tier: rng.below(4) as u8,
                q,
            },
            1 => Star::DimAll {
                size: 30 + rng.below(8) as u8,
                q,
            },
            2 => Star::Redistribute {
                nation: 13 + rng.below(5) as u8,
                q,
            },
            _ => {
                let w = d_max / 4;
                let lo = rng.below((d_max - w) as u64) as u32;
                Star::ThreeWay {
                    lo,
                    hi: lo + w,
                    tier: rng.below(4) as u8,
                }
            }
        };
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

// ----------------------------------------------------------------------
// events (dash_cached)
// ----------------------------------------------------------------------

pub const EVENTS_DDL: &str = "CREATE TABLE events (k BIGINT, v BIGINT) DISTKEY(k)";
pub const EVENT_KEYS: usize = 50;
pub const EVENTS_ROWS: usize = 200_000;
pub const TRICKLE_ROWS: usize = 1_000;
/// Size of the dashboard's template pool.
pub const DASH_TEMPLATES: usize = 40;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct KeyAgg {
    n: i64,
    sum: i64,
    min: i64,
    max: i64,
}

impl KeyAgg {
    fn add(&mut self, v: i64) {
        if self.n == 0 {
            (self.min, self.max) = (v, v);
        }
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// `events` and the objects COPYed into it during the run.
///
/// Per-key row counts are distinct at load (a permutation of evenly
/// spaced counts) and every trickle object adds the same number of rows
/// to every key, so `ORDER BY n DESC LIMIT k` never has a tie to break
/// and the model's answer is the only right one.
#[derive(Debug)]
pub struct Events {
    seed: u64,
    /// `aggs[j]`: per-key aggregates after `j` trickle objects.
    aggs: Vec<[KeyAgg; EVENT_KEYS]>,
}

impl Events {
    fn base_rows(seed: u64) -> impl Iterator<Item = (u8, u32)> {
        let mut rng = Rng::new(seed, 4);
        let mut perm: Vec<u64> = (0..EVENT_KEYS as u64).collect();
        rng.shuffle(&mut perm);
        // Counts 3755 + 10·perm sum to exactly EVENTS_ROWS.
        let mut left: Vec<u64> = perm.iter().map(|p| 3_755 + 10 * p).collect();
        debug_assert_eq!(left.iter().sum::<u64>(), EVENTS_ROWS as u64);
        let mut k = 0usize;
        std::iter::from_fn(move || {
            // Round-robin over the keys that still have rows to give.
            for _ in 0..EVENT_KEYS {
                let key = k;
                k = (k + 1) % EVENT_KEYS;
                if left[key] > 0 {
                    left[key] -= 1;
                    return Some((key as u8, rng.below(100_000) as u32));
                }
            }
            None
        })
    }

    fn trickle_rows(seed: u64, object: usize) -> impl Iterator<Item = (u8, u32)> {
        let mut rng = Rng::new(seed, 1_000 + object as u64);
        (0..TRICKLE_ROWS).map(move |r| ((r % EVENT_KEYS) as u8, rng.below(100_000) as u32))
    }

    fn csv(rows: impl Iterator<Item = (u8, u32)>) -> Vec<u8> {
        let mut s = String::new();
        for (k, v) in rows {
            let _ = writeln!(s, "{k},{v}");
        }
        s.into_bytes()
    }

    pub fn generate(seed: u64, trickle_objects: usize) -> Events {
        let mut agg = [KeyAgg::default(); EVENT_KEYS];
        for (k, v) in Self::base_rows(seed) {
            agg[k as usize].add(v as i64);
        }
        let mut aggs = vec![agg];
        for j in 0..trickle_objects {
            for (k, v) in Self::trickle_rows(seed, j) {
                agg[k as usize].add(v as i64);
            }
            aggs.push(agg);
        }
        Events { seed, aggs }
    }

    pub fn base_csv(&self) -> Vec<u8> {
        Self::csv(Self::base_rows(self.seed))
    }

    pub fn trickle_objects(&self) -> usize {
        self.aggs.len() - 1
    }

    pub fn trickle_csv(&self, object: usize) -> Vec<u8> {
        Self::csv(Self::trickle_rows(self.seed, object))
    }

    pub fn rows_after(&self, objects: usize) -> i64 {
        self.aggs[objects].iter().map(|a| a.n).sum()
    }

    /// The model's answer to dashboard template `rank` (see
    /// `workload::synth::template_sql`) after `objects` trickle loads.
    pub fn answer(&self, rank: u64, objects: usize) -> Answer {
        let agg = &self.aggs[objects];
        match rank % 4 {
            0 => {
                let bound = (10 + rank) as usize;
                vec![vec![i(agg.iter().take(bound).map(|a| a.n).sum::<i64>())]]
            }
            1 => {
                let mut by_n: Vec<(usize, i64)> = agg.iter().map(|a| a.n).enumerate().collect();
                by_n.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
                by_n.truncate((1 + rank % 10) as usize);
                by_n.into_iter()
                    .map(|(k, n)| vec![i(k as i64), i(n)])
                    .collect()
            }
            2 => vec![vec![i(agg[(rank % 50) as usize].sum)]],
            _ => {
                let others = agg
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k as u64 != rank % 50);
                let lo = others
                    .clone()
                    .map(|(_, a)| a.min)
                    .min()
                    .expect("49 other keys");
                let hi = others.map(|(_, a)| a.max).max().expect("49 other keys");
                vec![vec![i(lo), i(hi)]]
            }
        }
    }
}

// ----------------------------------------------------------------------
// staging bodies (etl_load, and the COPY probe of every traced run)
// ----------------------------------------------------------------------

pub const ETL_BODIES: usize = 8;
pub const ETL_BODY_ROWS: usize = 10_000;
const TAGS: [&str; 6] = ["new", "paid", "held", "void", "sent", "done"];

pub fn stage_ddl(table: &str) -> String {
    format!("CREATE TABLE {table} (id BIGINT, v BIGINT, amt FLOAT8, tag VARCHAR(16))")
}

#[derive(Debug)]
pub struct EtlBody {
    pub csv: Vec<u8>,
    pub sum_v: i64,
}

pub fn etl_body(seed: u64, body: usize) -> EtlBody {
    let mut rng = Rng::new(seed, 2_000 + body as u64);
    let mut s = String::new();
    let mut sum_v = 0i64;
    for r in 0..ETL_BODY_ROWS {
        let v = rng.below(1_000_000) as i64;
        let cents = rng.below(1_000_000);
        sum_v += v;
        let _ = writeln!(
            s,
            "{},{v},{}.{:02},{}-{}",
            body * ETL_BODY_ROWS + r,
            cents / 100,
            cents % 100,
            TAGS[rng.below(TAGS.len() as u64) as usize],
            rng.below(100)
        );
    }
    EtlBody {
        csv: s.into_bytes(),
        sum_v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_counts_are_distinct_and_stay_distinct() {
        let e = Events::generate(3, 5);
        assert_eq!(e.rows_after(0), EVENTS_ROWS as i64);
        assert_eq!(e.rows_after(5), (EVENTS_ROWS + 5 * TRICKLE_ROWS) as i64);
        for j in [0, 5] {
            let mut ns: Vec<i64> = e.aggs[j].iter().map(|a| a.n).collect();
            ns.sort_unstable();
            ns.dedup();
            assert_eq!(
                ns.len(),
                EVENT_KEYS,
                "no two keys share a count after {j} loads"
            );
        }
        assert_eq!(
            e.base_csv().iter().filter(|b| **b == b'\n').count(),
            EVENTS_ROWS
        );
        assert_eq!(e.trickle_csv(2), Events::generate(3, 3).trickle_csv(2));
        assert_ne!(e.base_csv(), Events::generate(4, 0).base_csv());
    }

    #[test]
    fn adhoc_texts_never_repeat_across_connections_or_twins() {
        let mut texts = std::collections::HashSet::new();
        for conn in 0..2 {
            for q in AdhocStream::new(9, conn, 2, 99_999).take(600) {
                assert!(texts.insert(q.sql()), "repeat: {}", q.sql());
                assert!(
                    texts.insert(q.twin().sql()),
                    "twin repeats: {}",
                    q.twin().sql()
                );
            }
        }
        let fams: Vec<&str> = AdhocStream::new(9, 0, 2, 99_999)
            .take(6)
            .map(|q| q.family())
            .collect();
        let mut sorted = fams.clone();
        sorted.sort_unstable();
        let mut want = ADHOC_FAMILIES.to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want, "one block holds every family once");
    }

    #[test]
    fn twin_selects_the_same_rows() {
        let f = Fact::generate(5, 20_000);
        for q in AdhocStream::new(5, 0, 2, f.d_max()).take(60) {
            if !matches!(q, Adhoc::RangeCount { .. } | Adhoc::Extract { .. }) {
                assert_eq!(q.answer(&f), q.twin().answer(&f), "{q:?}");
            }
        }
    }

    #[test]
    fn star_statements_are_24_distinct_texts_in_four_families() {
        let s = star_statements(11, 30_000);
        let texts: std::collections::HashSet<String> = s.iter().map(Star::sql).collect();
        assert_eq!(texts.len(), 24);
        for (i, fam) in STAR_FAMILIES.iter().enumerate() {
            assert!(s[i * 6..(i + 1) * 6].iter().all(|q| q.family() == *fam));
        }
        assert_eq!(s, star_statements(11, 30_000));
        assert_ne!(s, star_statements(12, 30_000));
    }

    #[test]
    fn fact_csv_matches_columns() {
        let f = Fact::generate(1, 25);
        let objs = f.csv_objects(10);
        assert_eq!(objs.len(), 3);
        let text = String::from_utf8(objs[0].clone()).unwrap();
        let first: Vec<&str> = text.lines().next().unwrap().split(',').collect();
        assert_eq!(first.len(), 7);
        assert_eq!(first[5].parse::<f64>().unwrap(), f.price(0));
        assert_eq!(first[6], f.note(0));
    }
}
