//! A measurement harness with criterion's API shape — warmup,
//! fixed sample counts, p50/p99/mean/min/max, optional throughput —
//! writing aligned text to stdout and CSV (plus optional JSON summary)
//! into the workspace `results/` directory.
//!
//! The six bench binaries build a [`Bench`], register functions through
//! [`Group::bench_function`] / [`Group::bench_with_input`] exactly like
//! criterion groups, and call [`Bench::finish`].
//!
//! Env knobs:
//! * `RSIM_BENCH_QUICK=1` — 3 samples, short warmup (smoke-test mode);
//! * `RSIM_RESULTS_DIR=<dir>` — overrides the report directory.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Record {
    pub group: String,
    pub bench: String,
    pub input: String,
    pub samples: usize,
    pub iters_per_sample: u64,
    pub mean_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
    /// Elements processed per iteration, if declared via
    /// [`Group::throughput_elems`].
    pub throughput_elems: Option<u64>,
}

impl Record {
    /// Elements per second at the mean, when throughput was declared.
    pub fn elems_per_sec(&self) -> Option<f64> {
        self.throughput_elems.map(|n| n as f64 * 1e9 / self.mean_ns.max(1e-9))
    }
}

/// Measurement tuning shared by all benches in a harness.
#[derive(Debug, Clone)]
struct Tuning {
    samples: usize,
    warmup: Duration,
    target_sample: Duration,
}

impl Tuning {
    fn from_env() -> Tuning {
        if std::env::var("RSIM_BENCH_QUICK").map(|v| v != "0").unwrap_or(false) {
            Tuning {
                samples: 3,
                warmup: Duration::from_millis(2),
                target_sample: Duration::from_millis(4),
            }
        } else {
            Tuning {
                samples: 10,
                warmup: Duration::from_millis(20),
                target_sample: Duration::from_millis(25),
            }
        }
    }
}

/// The harness: owns results and report paths. One per bench binary.
pub struct Bench {
    name: String,
    records: Vec<Record>,
    tuning: Tuning,
    results_dir: PathBuf,
    json_out: Option<PathBuf>,
}

impl Bench {
    pub fn new(name: impl Into<String>) -> Bench {
        let name = name.into();
        let results_dir = default_results_dir();
        Bench { name, records: Vec::new(), tuning: Tuning::from_env(), results_dir, json_out: None }
    }

    /// Override the report directory (tests use a temp dir).
    pub fn results_dir(&mut self, dir: impl Into<PathBuf>) -> &mut Self {
        self.results_dir = dir.into();
        self
    }

    /// Also write a machine-readable JSON summary to `path` (relative
    /// paths resolve against the workspace root / results parent).
    pub fn json_summary_to(&mut self, path: impl Into<PathBuf>) -> &mut Self {
        let p: PathBuf = path.into();
        self.json_out = Some(if p.is_absolute() {
            p
        } else {
            self.results_dir.parent().map(|d| d.join(&p)).unwrap_or(p)
        });
        self
    }

    /// Begin a named group (criterion's `benchmark_group`).
    pub fn group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            bench: self,
            name: name.into(),
            sample_size: None,
            throughput_elems: None,
        }
    }

    /// Shorthand: a single function in an anonymous group.
    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let mut g = self.group("");
        g.bench_function(id.into(), f);
        g.finish();
    }

    fn run_one(
        &mut self,
        group: &str,
        bench: &str,
        input: &str,
        sample_size: Option<usize>,
        throughput_elems: Option<u64>,
        f: &mut dyn FnMut(&mut Bencher),
    ) {
        let mut tuning = self.tuning.clone();
        if let Some(n) = sample_size {
            // criterion semantics: sample_size(10) means 10 samples; our
            // quick mode may lower it further.
            tuning.samples = tuning.samples.min(n.max(2));
        }
        let mut b = Bencher { tuning, result: None };
        f(&mut b);
        let Some((iters, samples_ns)) = b.result else {
            // Routine never called `iter` — record nothing.
            return;
        };
        let rec = summarize(group, bench, input, iters, &samples_ns, throughput_elems);
        let label = display_label(group, bench, input);
        let tput = rec
            .elems_per_sec()
            .map(|e| format!("  thrpt: {}/s", fmt_count_f(e)))
            .unwrap_or_default();
        println!(
            "{label:<52} time: [p50 {:>9} p99 {:>9} mean {:>9}]{tput}",
            fmt_ns(rec.p50_ns),
            fmt_ns(rec.p99_ns),
            fmt_ns(rec.mean_ns),
        );
        self.records.push(rec);
    }

    /// All measurements so far (exposed for programmatic consumers).
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Print the final aligned table and write `results/<name>.csv`
    /// (+ JSON summary if requested). Returns the records.
    pub fn finish(self) -> Vec<Record> {
        println!("\n== {} — {} benches ==", self.name, self.records.len());
        let header = ["group", "bench", "input", "p50", "p99", "mean", "iters"];
        let mut rows: Vec<[String; 7]> = Vec::new();
        for r in &self.records {
            rows.push([
                r.group.clone(),
                r.bench.clone(),
                r.input.clone(),
                fmt_ns(r.p50_ns),
                fmt_ns(r.p99_ns),
                fmt_ns(r.mean_ns),
                r.iters_per_sample.to_string(),
            ]);
        }
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&header.map(String::from)));
        for row in &rows {
            println!("{}", fmt_row(row.as_slice()));
        }

        if let Err(e) = std::fs::create_dir_all(&self.results_dir) {
            eprintln!("[testkit::bench] cannot create {}: {e}", self.results_dir.display());
        }
        let csv_path = self.results_dir.join(format!("{}.csv", self.name));
        match std::fs::write(&csv_path, self.to_csv()) {
            Ok(()) => println!("\nwrote {}", csv_path.display()),
            Err(e) => eprintln!("[testkit::bench] cannot write {}: {e}", csv_path.display()),
        }
        if let Some(json_path) = &self.json_out {
            match std::fs::write(json_path, self.to_json()) {
                Ok(()) => println!("wrote {}", json_path.display()),
                Err(e) => eprintln!("[testkit::bench] cannot write {}: {e}", json_path.display()),
            }
        }
        self.records
    }

    fn to_csv(&self) -> String {
        let mut out = String::from(
            "group,bench,input,samples,iters_per_sample,p50_ns,p99_ns,mean_ns,min_ns,max_ns,elems_per_sec\n",
        );
        for r in &self.records {
            writeln!(
                out,
                "{},{},{},{},{},{:.1},{:.1},{:.1},{:.1},{:.1},{}",
                csv_field(&r.group),
                csv_field(&r.bench),
                csv_field(&r.input),
                r.samples,
                r.iters_per_sample,
                r.p50_ns,
                r.p99_ns,
                r.mean_ns,
                r.min_ns,
                r.max_ns,
                r.elems_per_sec().map(|e| format!("{e:.0}")).unwrap_or_default(),
            )
            .expect("write to string");
        }
        out
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        writeln!(out, "{{").unwrap();
        writeln!(out, "  \"harness\": {},", json_str(&self.name)).unwrap();
        writeln!(out, "  \"generated_unix\": {unix},").unwrap();
        writeln!(out, "  \"benches\": [").unwrap();
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"group\": {}, \"bench\": {}, \"input\": {}, \"samples\": {}, \
                 \"iters_per_sample\": {}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \
                 \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}}}{comma}",
                json_str(&r.group),
                json_str(&r.bench),
                json_str(&r.input),
                r.samples,
                r.iters_per_sample,
                r.p50_ns,
                r.p99_ns,
                r.mean_ns,
                r.min_ns,
                r.max_ns,
            )
            .unwrap();
        }
        writeln!(out, "  ]").unwrap();
        writeln!(out, "}}").unwrap();
        out
    }
}

/// A named group of benchmarks (criterion's `BenchmarkGroup`).
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    sample_size: Option<usize>,
    throughput_elems: Option<u64>,
}

impl Group<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Declare elements-processed-per-iteration for throughput reporting.
    pub fn throughput_elems(&mut self, n: u64) -> &mut Self {
        self.throughput_elems = Some(n);
        self
    }

    pub fn bench_function(&mut self, id: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        let (name, ss, tp) = (self.name.clone(), self.sample_size, self.throughput_elems);
        self.bench.run_one(&name, &id, "", ss, tp, &mut f);
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let (name, ss, tp) = (self.name.clone(), self.sample_size, self.throughput_elems);
        self.bench.run_one(&name, &id.function, &id.parameter, ss, tp, &mut |b| f(b, input));
    }

    pub fn finish(self) {}
}

/// Function + parameter label (criterion's `BenchmarkId`).
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    pub fn new(function: impl ToString, parameter: impl ToString) -> BenchmarkId {
        BenchmarkId { function: function.to_string(), parameter: parameter.to_string() }
    }
}

/// Passed to the routine; call [`Bencher::iter`] with the hot closure.
pub struct Bencher {
    tuning: Tuning,
    result: Option<(u64, Vec<f64>)>,
}

impl Bencher {
    /// Warm up and calibrate iterations-per-sample to the target sample
    /// duration, by wall time of `once` (all of it, timed or not).
    fn calibrate(&self, mut once: impl FnMut()) -> u64 {
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            once();
            warm_iters += 1;
            if warm_start.elapsed() >= self.tuning.warmup || warm_iters >= 1_000 {
                break;
            }
        }
        let per_iter_ns =
            (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
        ((self.tuning.target_sample.as_nanos() as f64 / per_iter_ns) as u64).clamp(1, 10_000_000)
    }

    /// Warm up, calibrate, then time `tuning.samples` samples.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let iters = self.calibrate(|| {
            black_box(f());
        });
        let mut samples_ns = Vec::with_capacity(self.tuning.samples);
        for _ in 0..self.tuning.samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.result = Some((iters, samples_ns));
    }

    /// Like [`Bencher::iter`], but every iteration gets a fresh input
    /// from `setup`, whose time is not counted (criterion's
    /// `iter_batched`): for routines that consume or dirty their input,
    /// such as the n-th COPY into a table.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        let iters = self.calibrate(|| {
            black_box(routine(setup()));
        });
        let mut samples_ns = Vec::with_capacity(self.tuning.samples);
        for _ in 0..self.tuning.samples {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let t = Instant::now();
                black_box(routine(input));
                timed += t.elapsed();
            }
            samples_ns.push(timed.as_nanos() as f64 / iters as f64);
        }
        self.result = Some((iters, samples_ns));
    }
}

fn summarize(
    group: &str,
    bench: &str,
    input: &str,
    iters: u64,
    samples_ns: &[f64],
    throughput_elems: Option<u64>,
) -> Record {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample times"));
    let n = sorted.len();
    let pct = |p: f64| sorted[(((n as f64) * p).ceil() as usize).clamp(1, n) - 1];
    Record {
        group: group.to_string(),
        bench: bench.to_string(),
        input: input.to_string(),
        samples: n,
        iters_per_sample: iters,
        mean_ns: sorted.iter().sum::<f64>() / n as f64,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        min_ns: sorted[0],
        max_ns: sorted[n - 1],
        throughput_elems,
    }
}

fn display_label(group: &str, bench: &str, input: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for p in [group, bench, input] {
        if !p.is_empty() {
            parts.push(p);
        }
    }
    parts.join("/")
}

/// Parse a CSV previously written by [`Bench::finish`] back into
/// [`Record`]s. The header row is required and columns are matched by
/// position. `throughput_elems` is not stored in the CSV (only the
/// derived `elems_per_sec`), so it is recovered from `elems_per_sec`
/// and `mean_ns` when present.
pub fn parse_csv(text: &str) -> Result<Vec<Record>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| "empty CSV".to_string())?;
    if !header.starts_with("group,bench,input,") {
        return Err(format!("unrecognized CSV header: {header}"));
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_csv_line(line);
        if fields.len() < 10 {
            return Err(format!("line {}: expected >=10 fields, got {}", i + 2, fields.len()));
        }
        let num = |j: usize| -> Result<f64, String> {
            fields[j]
                .parse::<f64>()
                .map_err(|e| format!("line {}: field {}: {e}", i + 2, j + 1))
        };
        let mean_ns = num(7)?;
        let throughput_elems = fields
            .get(10)
            .filter(|s| !s.is_empty())
            .and_then(|s| s.parse::<f64>().ok())
            .map(|eps| (eps * mean_ns / 1e9).round() as u64);
        out.push(Record {
            group: fields[0].clone(),
            bench: fields[1].clone(),
            input: fields[2].clone(),
            samples: num(3)? as usize,
            iters_per_sample: num(4)? as u64,
            p50_ns: num(5)?,
            p99_ns: num(6)?,
            mean_ns,
            min_ns: num(8)?,
            max_ns: num(9)?,
            throughput_elems,
        });
    }
    Ok(out)
}

fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Which latency statistic a diff gates on. `P50` is the default
/// everywhere; `P99` exists for tail-latency gates (fed by histogram
/// exports and the profiler-overhead ablation), where the median hides
/// exactly the regressions that matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStat {
    P50,
    P99,
}

impl DiffStat {
    pub fn label(self) -> &'static str {
        match self {
            DiffStat::P50 => "p50",
            DiffStat::P99 => "p99",
        }
    }

    fn pick(self, r: &Record) -> f64 {
        match self {
            DiffStat::P50 => r.p50_ns,
            DiffStat::P99 => r.p99_ns,
        }
    }
}

/// One `(group, bench, input)` pair compared across two runs.
#[derive(Debug, Clone)]
pub struct StatDiff {
    /// `group/bench/input` display key.
    pub key: String,
    pub base_ns: f64,
    pub new_ns: f64,
    /// Positive = regression (new is slower).
    pub delta_pct: f64,
}

/// Join two runs by `(group, bench, input)` and compare the chosen
/// statistic. Returns `(common, only_in_base, only_in_new)`; `common`
/// is sorted by descending regression so the worst offenders print
/// first.
pub fn diff_stat(
    base: &[Record],
    new: &[Record],
    stat: DiffStat,
) -> (Vec<StatDiff>, Vec<String>, Vec<String>) {
    let key = |r: &Record| display_label(&r.group, &r.bench, &r.input);
    let base_map: std::collections::BTreeMap<String, f64> =
        base.iter().map(|r| (key(r), stat.pick(r))).collect();
    let new_map: std::collections::BTreeMap<String, f64> =
        new.iter().map(|r| (key(r), stat.pick(r))).collect();
    let mut common = Vec::new();
    let mut only_base = Vec::new();
    for (k, &b) in &base_map {
        match new_map.get(k) {
            Some(&n) => common.push(StatDiff {
                key: k.clone(),
                base_ns: b,
                new_ns: n,
                delta_pct: (n - b) / b.max(1e-9) * 100.0,
            }),
            None => only_base.push(k.clone()),
        }
    }
    let only_new: Vec<String> =
        new_map.keys().filter(|k| !base_map.contains_key(*k)).cloned().collect();
    common.sort_by(|a, b| b.delta_pct.partial_cmp(&a.delta_pct).expect("finite deltas"));
    (common, only_base, only_new)
}

/// [`diff_stat`] pinned to the default p50 gate.
pub fn diff_p50(base: &[Record], new: &[Record]) -> (Vec<StatDiff>, Vec<String>, Vec<String>) {
    diff_stat(base, new, DiffStat::P50)
}

/// Human-scale nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.2}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

fn fmt_count_f(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `results/` under the workspace root: `RSIM_RESULTS_DIR` if set, else
/// walk up from the current directory to the `[workspace]` Cargo.toml.
/// Public so bench binaries that emit their own CSVs (e.g. the workload
/// replay report) land them next to the harness-written ones.
pub fn default_results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("RSIM_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(contents) = std::fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return dir.join("results");
            }
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "testkit-bench-{tag}-{}-{}",
            std::process::id(),
            crate::rng::entropy_seed()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn quick_bench(name: &str, dir: &Path) -> Bench {
        let mut b = Bench::new(name);
        b.results_dir(dir);
        b.tuning = Tuning {
            samples: 5,
            warmup: Duration::from_micros(200),
            target_sample: Duration::from_micros(500),
        };
        b
    }

    #[test]
    fn end_to_end_csv_and_stats() {
        let dir = temp_dir("csv");
        let mut b = quick_bench("unit", &dir);
        let mut g = b.group("math");
        g.sample_size(5);
        g.bench_with_input(BenchmarkId::new("sum", "1k"), &1000u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>());
        });
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.finish();
        let records = b.finish();
        assert_eq!(records.len(), 2);
        for r in &records {
            assert!(r.min_ns <= r.p50_ns && r.p50_ns <= r.p99_ns && r.p99_ns <= r.max_ns);
            assert!(r.mean_ns > 0.0);
            assert_eq!(r.samples, 5);
            assert!(r.iters_per_sample >= 1);
        }
        let csv = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert!(csv.starts_with("group,bench,input,"));
        assert_eq!(csv.lines().count(), 3, "{csv}");
        assert!(csv.contains("math,sum,1k,"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_summary_written_and_escaped() {
        let dir = temp_dir("json");
        let mut b = quick_bench("jsum", &dir);
        let json_path = dir.join("BENCH_test.json");
        b.json_summary_to(&json_path);
        b.bench_function("quote\"in\"name", |b| b.iter(|| 2 * 2));
        b.finish();
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"harness\": \"jsum\""));
        assert!(json.contains("quote\\\"in\\\"name"));
        assert!(json.contains("\"p50_ns\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn iter_batched_times_the_routine_only() {
        let dir = temp_dir("batched");
        let mut b = quick_bench("batched", &dir);
        let mut setups = 0u64;
        b.bench_function("cheap_routine_slow_setup", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    std::thread::sleep(Duration::from_micros(300));
                    setups
                },
                |n| n + 1,
            )
        });
        let records = b.finish();
        assert!(setups > records[0].samples as u64, "fresh input per iteration");
        assert!(records[0].p50_ns < 100_000.0, "setup's 300 µs leaked in: {:?}", records[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn throughput_reported() {
        let dir = temp_dir("tput");
        let mut b = quick_bench("tput", &dir);
        let mut g = b.group("scan");
        g.throughput_elems(10_000);
        g.bench_function("rows", |b| b.iter(|| std::hint::black_box(42)));
        g.finish();
        let records = b.finish();
        let eps = records[0].elems_per_sec().unwrap();
        assert!(eps > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(1_500.0), "1.50µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
        assert_eq!(fmt_ns(3_200_000_000.0), "3.20s");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn csv_round_trip_parses() {
        let dir = temp_dir("roundtrip");
        let mut b = quick_bench("rt", &dir);
        let mut g = b.group("grp,with,commas");
        g.throughput_elems(1_000);
        g.bench_with_input(BenchmarkId::new("sum", "1k"), &1000u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>());
        });
        g.finish();
        let written = b.finish();
        let csv = std::fs::read_to_string(dir.join("rt.csv")).unwrap();
        let parsed = parse_csv(&csv).unwrap();
        assert_eq!(parsed.len(), written.len());
        assert_eq!(parsed[0].group, "grp,with,commas");
        assert_eq!(parsed[0].bench, "sum");
        assert_eq!(parsed[0].input, "1k");
        assert!((parsed[0].p50_ns - written[0].p50_ns).abs() < 0.5);
        // elems_per_sec → throughput_elems round-trips within rounding.
        let t = parsed[0].throughput_elems.unwrap();
        assert!((990..=1_010).contains(&t), "{t}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_csv_rejects_garbage() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("nope,nope\n1,2\n").is_err());
        let bad = "group,bench,input,samples,iters_per_sample,p50_ns,p99_ns,mean_ns,min_ns,max_ns,elems_per_sec\na,b,c,xx,1,1,1,1,1,1,\n";
        assert!(parse_csv(bad).is_err());
    }

    #[test]
    fn diff_p50_flags_regressions_and_membership() {
        let rec = |bench: &str, p50: f64| Record {
            group: "g".into(),
            bench: bench.into(),
            input: String::new(),
            samples: 3,
            iters_per_sample: 1,
            mean_ns: p50,
            p50_ns: p50,
            p99_ns: p50,
            min_ns: p50,
            max_ns: p50,
            throughput_elems: None,
        };
        let base = vec![rec("stable", 100.0), rec("slower", 100.0), rec("gone", 10.0)];
        let new = vec![rec("stable", 101.0), rec("slower", 150.0), rec("fresh", 5.0)];
        let (common, only_base, only_new) = diff_p50(&base, &new);
        assert_eq!(common.len(), 2);
        // Sorted worst-first.
        assert_eq!(common[0].key, "g/slower");
        assert!((common[0].delta_pct - 50.0).abs() < 1e-9);
        assert_eq!(common[1].key, "g/stable");
        assert_eq!(only_base, vec!["g/gone".to_string()]);
        assert_eq!(only_new, vec!["g/fresh".to_string()]);
    }

    #[test]
    fn diff_stat_p99_gates_the_tail_independently() {
        let rec = |bench: &str, p50: f64, p99: f64| Record {
            group: "g".into(),
            bench: bench.into(),
            input: String::new(),
            samples: 3,
            iters_per_sample: 1,
            mean_ns: p50,
            p50_ns: p50,
            p99_ns: p99,
            min_ns: p50,
            max_ns: p99,
            throughput_elems: None,
        };
        // Median flat, tail +100%: only the p99 gate sees it.
        let base = vec![rec("tail", 100.0, 200.0)];
        let new = vec![rec("tail", 100.0, 400.0)];
        let (by_p50, _, _) = diff_stat(&base, &new, DiffStat::P50);
        assert!(by_p50[0].delta_pct.abs() < 1e-9);
        let (by_p99, _, _) = diff_stat(&base, &new, DiffStat::P99);
        assert!((by_p99[0].delta_pct - 100.0).abs() < 1e-9);
        assert_eq!(DiffStat::P99.label(), "p99");
    }

    #[test]
    fn quick_env_is_respected_in_shape() {
        // Not set in tests — just assert the default tuning is sane.
        let t = Tuning::from_env();
        assert!(t.samples >= 3);
        assert!(t.target_sample >= Duration::from_millis(1));
    }
}
